"""The workloads: inputs made from the seed, the ops of one round, the
quadrature rules each builds in set-up, and the check each op's value must
pass.

A round is what one fresh process runs.  Every round of a run gets the same
inputs, so rounds are repeats of one fixed call sequence and each op can be
compared with itself across rounds.  ``round_s`` is a round's nominal length
on the 2-core host the benchmark was sized on; run.py sizes a run from it.
Each op is one user-visible value; checks run after the timed loop and never
inside it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
from dataclasses import dataclass, field

# Absolute rounding floor for comparing two quadrature routes whose error
# estimates can both be exactly zero: sqrt(terms) ulps of the largest sum
# involved, the 128^3-term tensor contraction at the default 64/128 nodes.
_ROUND_FLOOR = math.sqrt(128.0 ** 3) * 2.0 ** -52

# README commands run through hermgrid.cli.main; --out is left off so the
# table is captured from stdout instead of written to a file
README_GREENS_CLI = (
    ("yukawa", ["yukawa", "--mu", "1", "--n-max", "8"]),
    ("coulomb", ["coulomb", "--n-max", "10"]),
    ("continuum", ["continuum", "--mu", "0.5", "--n-max", "8"]),
    ("greens", ["greens", "--mu", "1", "--n-max", "6"]),
)
README_MOLLER_CLI = (
    ("moller", ["moller", "--p1", "0.1,0,0", "--p2=-0.1,0,0", "--p1-out", "0.08,0.06,0",
                "--p2-out=-0.08,-0.06,0", "--mu", "1", "--vertex-n-max", "32"]),
)


@dataclass
class Op:
    """One user-visible value: ``call`` computes it, ``kind`` and ``label``
    name it in failure reports, ``key`` lets a check find related ops."""

    kind: str
    label: str
    call: object
    key: tuple = ()


@dataclass
class Round:
    ops: list[Op]
    inputs: dict = field(default_factory=dict)


def _call(module, name: str, *args):
    # look the function up at call time, so a traced round sees its wrapper
    return lambda: getattr(module, name)(*args)


class CliExit(Exception):
    """A CLI op that returned a non-zero exit code: a failed op, like a
    typed HermgridError raised by a library call."""


def _cli_call(cli, argv: list[str]):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        if code != 0:
            raise CliExit(f"exit code {code}")
        return out.getvalue()
    return run


def _cli_ops(cli, commands) -> list[Op]:
    return [Op("cli", name, _cli_call(cli, argv)) for name, argv in commands]


def _finite(z) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


class MassScan:
    """Axis and tensor Green's tables over seed-drawn boson masses, then the
    README potential and Green's commands."""

    name = "mass-scan"
    modules = ("hermgrid", "hermgrid.cli")
    round_s = 3.5
    axis_max = 40
    tensor_max = 6

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        count = 4 if smoke else 48
        # stratified log-uniform draw over [0.25, 4]: one mass per stratum,
        # so exactly half the masses lie below the mu = 1 branch switch
        masses = [0.25 * 16.0 ** ((k + rng.random()) / count) for k in range(count)]
        rng.shuffle(masses)
        self.masses = masses

    def rules(self, q) -> list:
        angular = sorted({max(8, n1 // 2 + 2) * f for n1 in range(0, self.axis_max + 1, 2)
                          for f in (1, 2)})
        calls = [(q.gauss_laguerre_half, (n,)) for n in (400, 800)]
        calls += [(q.gauss_legendre, (n,)) for n in angular]
        calls += [(q.gauss_hermite, (n,)) for n in (64, 128)]
        calls += [(q.weighted_phi_table, (k, n)) for n in (64, 128)
                  for k in range(self.tensor_max + 1)]
        return calls

    def build(self, hg) -> Round:
        cfg = hg.QuadratureConfig()
        ops = []
        for mu in self.masses:
            ops += [Op("axis", f"n1={n1}", _call(hg.greens, "g_sharp_axis", n1, mu, cfg), (mu, n1))
                    for n1 in range(self.axis_max + 1)]
            ops += [Op("tensor", f"n1={n1}",
                       _call(hg.greens, "g_sharp", (n1, 0, 0), (0, 0, 0), mu, cfg), (mu, n1))
                    for n1 in range(self.tensor_max + 1)]
        ops += _cli_ops(hg.cli, README_GREENS_CLI)
        axis = [op for op in ops if op.kind == "axis"]
        inputs = {
            "masses": len(self.masses),
            "mass_below_1_share": sum(mu < 1.0 for mu in self.masses) / len(self.masses),
            "odd_axis_share": sum(op.key[1] % 2 for op in axis) / len(axis),
            "high_order_share": sum(op.key[1] >= 26 for op in axis) / len(ops),
            "high_order_even_share": sum(op.key[1] >= 26 and op.key[1] % 2 == 0
                                         for op in axis) / len(ops),
        }
        return Round(ops, inputs)

    def verify(self, hg, rnd: Round, values: list, round_index: int) -> list[str | None]:
        axis = {op.key: v for op, v in zip(rnd.ops, values) if op.kind == "axis" and v is not None}
        out = []
        for op, v in zip(rnd.ops, values):
            if v is None or op.kind == "cli":
                out.append(None)
            elif op.kind == "axis":
                out.append(self._check_axis(hg, op.key, v))
            else:
                ref = axis.get(op.key)
                if ref is None:
                    out.append("no axis value to compare against")
                    continue
                gap = abs(v.value - ref.value)
                limit = v.err_estimate + ref.err_estimate + _ROUND_FLOOR
                out.append(None if gap <= limit else f"tensor-axis gap {gap:.3e} > {limit:.3e}")
        return out

    @staticmethod
    def _check_axis(hg, key, v) -> str | None:
        mu, n1 = key
        if not _finite(v.value):
            return "not finite"
        if n1 % 2:
            return None if v.value == 0 else "odd order is not an exact zero"
        if n1 == 0:
            gap = abs(v.value - hg.greens.yukawa_coincidence(mu))
            limit = v.err_estimate + _ROUND_FLOOR
            return None if gap <= limit else f"coincidence gap {gap:.3e} > {limit:.3e}"
        return None


class Exchange:
    """Exchange elements over seeded low-momentum kinematics and s_plus_green
    samples, then the README moller command."""

    name = "exchange"
    modules = ("hermgrid", "hermgrid.cli", "hermgrid.checks")
    round_s = 3.5
    # The 96-node sum-vertices-first oracle resolves the n_max = 32 element
    # to 1e-4 only for mu >= 1: at mu = 0.5 it sits 2.8e-4 away at 96 nodes
    # and 1.9e-5 at 160 nodes, converging on the production value.
    boson_masses = (1.0, 2.0)
    # kinematics per mass at each vertex cutoff; with four fifths of the
    # elements at n_max = 32 the median op lies inside that latency cluster,
    # not on its edge with the slower n_max = 64 cluster
    vertex_n_max = {32: 40, 64: 10}
    oracle_per_mass = 2

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        self.m = 1.0
        kinematics = 2 if smoke else max(self.vertex_n_max.values())
        projectors = 2 if smoke else 18
        self.kinematics = [tuple(self._momentum(rng) for _ in range(4)) for _ in range(kinematics)]
        self.projectors = []
        for _ in range(projectors):
            n = tuple(rng.randrange(3) for _ in range(3))
            nhat = tuple(rng.randrange(3) for _ in range(3))
            self.projectors.append((n, nhat, rng.random()))
        self.seed = seed

    def _momentum(self, rng: random.Random) -> tuple[float, float, float]:
        # uniform direction, magnitude uniform below m/5
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in d))
        size = rng.uniform(0.0, 0.999 * self.m / 5.0)
        return tuple(size * c / norm for c in d)

    def rules(self, q) -> list:
        calls = [(q.gauss_hermite, (n,)) for n in (64, 128)]
        calls += [(q.weighted_phi_table, (k, n)) for n in (64, 128) for k in range(3)]
        return calls

    def build(self, hg) -> Round:
        cfg = hg.QuadratureConfig()
        ops = []
        for mu in self.boson_masses:
            for n_max, count in self.vertex_n_max.items():
                for p in self.kinematics[:count]:
                    kin = hg.MollerKinematics(*p, m=self.m, mu=mu, g=1.0)
                    trunc = hg.VertexTruncation(n_max)
                    ops.append(Op("element", f"mu={mu} n_max={n_max}",
                                  _call(hg.scattering, "moller_reduced_element", kin, trunc, cfg),
                                  (kin, n_max)))
        for n, nhat, dt in self.projectors:
            ops.append(Op("projector", f"n={n} nhat={nhat}",
                          _call(hg.dirac, "s_plus_green", n, nhat, dt, self.m, cfg)))
        ops += _cli_ops(hg.cli, README_MOLLER_CLI)
        inputs = {"kinematics": len(self.kinematics), "elements": sum(o.kind == "element" for o in ops),
                  "projectors": len(self.projectors),
                  "max_momentum_over_m": max(math.sqrt(sum(c * c for c in p)) for k in self.kinematics
                                             for p in k) / self.m}
        return Round(ops, inputs)

    def verify(self, hg, rnd: Round, values: list, round_index: int) -> list[str | None]:
        out = []
        for op, v in zip(rnd.ops, values):
            if v is None or op.kind == "cli":
                out.append(None)
            elif op.kind == "projector":
                out.append(None if all(_finite(z) for z in v.ravel()) else "not finite")
            else:
                out.append(None if _finite(v) else "not finite")
        # the oracle checks a seeded subset of the n_max = 32 elements; each
        # round takes another subset, so a run covers more of them
        pick = random.Random(f"{self.seed}/{round_index}")
        for mu in self.boson_masses:
            idx = [i for i, op in enumerate(rnd.ops)
                   if op.kind == "element" and op.key[0].mu == mu and op.key[1] == 32
                   and out[i] is None and values[i] is not None]
            for i in pick.sample(idx, min(self.oracle_per_mass, len(idx))):
                kin, n_max = rnd.ops[i].key
                oracle = hg.checks.moller_oracle_element(kin, hg.VertexTruncation(n_max))
                rel = abs(values[i] - oracle) / abs(oracle)
                if not rel <= 1e-4:
                    out[i] = f"oracle relative gap {rel:.3e} > 1e-4"
        return out


WORKLOADS = {w.name: w for w in (MassScan, Exchange)}


def load(workload) -> object:
    """Import the workload's hermgrid modules; return the package."""
    for name in workload.modules:
        importlib.import_module(name)
    return importlib.import_module("hermgrid")
