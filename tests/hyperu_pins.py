"""Writes hyperu_pins.json, the references of test_axis_values_match_mpmath_hyperu.

For each of 31 masses mu over [1e-6, 1e3] (numpy.logspace(-6, 3, 31)) and
each j = 0..100, the axis value G((2j,0,0),(0,0,0); mu) =
(sqrt((2j)!) / 2^j) U(j+1, 1/2, mu^2) from mpmath's hyperu at 30 digits,
as a 30-digit decimal string; the prefactor is built as the product of
sqrt(j (2j - 1) / 2).  Run from the repository root:

    python tests/hyperu_pins.py

It takes about 25 s on a 2-core VM and rewrites the file next to this script.
"""

import json
import pathlib

import mpmath as mp
import numpy as np

PATH = pathlib.Path(__file__).with_name("hyperu_pins.json")
DIGITS = 30
ORDERS = 101


def masses() -> list[float]:
    return [float(mu) for mu in np.logspace(-6, 3, 31)]


def pins(mu: float) -> list[str]:
    with mp.workdps(DIGITS):
        x = mp.mpf(mu) ** 2
        prefactor = mp.mpf(1)
        out = []
        for j in range(ORDERS):
            if j:
                prefactor *= mp.sqrt(j * (2 * j - 1) / mp.mpf(2))
            out.append(mp.nstr(prefactor * mp.hyperu(j + 1, 0.5, x), DIGITS))
        return out


def main() -> None:
    rows = [f"    [{mu!r}, {json.dumps(pins(mu))}]" for mu in masses()]
    PATH.write_text('{"digits": %d, "pins": [\n%s\n]}\n' % (DIGITS, ",\n".join(rows)),
                    encoding="utf-8")


if __name__ == "__main__":
    main()
