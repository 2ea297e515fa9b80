"""Values of the tensor Gauss-Hermite routes pinned before they moved to the
parity-folded contraction kernel (quadrature.contract_even).

The literals below were produced by the per-node loops that the kernel
replaced, at the default QuadratureConfig.  The kernel sums the same terms in
another order, so the bounds allow rounding only:

- g_sharp: 2e-15 absolute.
- s_plus_green: 5e-16 absolute per matrix entry.
- exchange elements: 1e-10 relative.  The ball-moment defect
  d0 = exact - quadrature carries about 1e-15 absolute rounding on either
  route, and the pole correction multiplies it by the profiles' origin
  moments.
- tail_report: 1e-10 times |element| absolute.  It is the difference of two
  close sums, so it is not bounded relative to itself.

Parity-forbidden values were tiny rounding residues before and are exact
zeros now; both sit inside the absolute bounds.
"""

import warnings

import numpy as np
import pytest

from hermgrid import (
    MollerKinematics,
    QuadratureConfig,
    VertexTruncation,
    g_sharp,
    moller_reduced_element,
    s_plus_green,
)

CFG = QuadratureConfig()

KINEMATICS = {
    # the README moller command
    "readme": ((0.1, 0, 0), (-0.1, 0, 0), (0.08, 0.06, 0), (-0.08, -0.06, 0)),
    "skew": ((0.15, 0.05, -0.1), (-0.12, 0.08, 0.06), (0.1, 0.1, -0.08), (-0.07, 0.03, 0.04)),
}

GSHARP = {
    ((0, 0, 0), (0, 0, 0), 0.7): (0.6949378475597248+0j),
    ((1, 0, 0), (0, 0, 0), 0.7): (-0-5.750877168820714e-18j),
    ((2, 0, 0), (0, 0, 0), 0.7): (0.18051319679576983+0j),
    ((3, 0, 0), (0, 0, 0), 0.7): (-0-2.8907388241411895e-18j),
    ((4, 0, 0), (0, 0, 0), 0.7): (0.07927679361075916+0j),
    ((5, 0, 0), (0, 0, 0), 0.7): 1.567231581128509e-17j,
    ((6, 0, 0), (0, 0, 0), 0.7): (0.042307646228743966+0j),
    ((0, 0, 0), (0, 0, 0), 1.3): (0.3518466722186033+0j),
    ((1, 0, 0), (0, 0, 0), 1.3): 1.5001143872793554e-18j,
    ((2, 0, 0), (0, 0, 0), 1.3): (0.0576956161990925+0j),
    ((3, 0, 0), (0, 0, 0), 1.3): 1.6516621663547654e-18j,
    ((4, 0, 0), (0, 0, 0), 1.3): (0.017544663235607185+0j),
    ((5, 0, 0), (0, 0, 0), 1.3): (-0-3.0685952482618748e-18j),
    ((6, 0, 0), (0, 0, 0), 1.3): (0.006837244167818576+0j),
    ((0, 0, 0), (0, 0, 0), 3.1): (0.09097125370383027+0j),
    ((1, 0, 0), (0, 0, 0), 3.1): (-0-9.864468079239546e-19j),
    ((2, 0, 0), (0, 0, 0), 3.1): (0.005039610675498079+0j),
    ((3, 0, 0), (0, 0, 0), 3.1): (-0-1.2981372684047703e-18j),
    ((4, 0, 0), (0, 0, 0), 3.1): (0.0006037601995810583+0j),
    ((5, 0, 0), (0, 0, 0), 3.1): (-0-1.4095465842121457e-18j),
    ((6, 0, 0), (0, 0, 0), 3.1): (0.00010275141517778236+0j),
    ((2, 1, 0), (0, 1, 2), 0.8): (0.022056234280686402+0j),
    ((1, 1, 2), (1, 3, 0), 1.3): (0.008717860341130364+0j),
    ((2, 2, 2), (0, 0, 2), 3.1): (0.00034034988623991993+0j),
}

SPLUS = {
    ((1, 0, 1), (0, 2, 0), 0.3): [
        [(-1.134856257210467e-36+1.0508016423508365e-35j), 0j,
         (-2.912200206915114e-19-2.005612214994255e-20j), (-1.825581489137647e-19-1.2373354803976546e-21j)],
        [0j, (-1.134856257210467e-36+1.0508016423508365e-35j),
         (-1.825581489137647e-19-1.2373354803976546e-21j), (2.912200206915114e-19+2.005612214994255e-20j)],
        [(-2.912200206915114e-19-2.005612214994255e-20j), (-1.825581489137647e-19-1.2373354803976546e-21j),
         (8.880103855274444e-37+1.2432609386466755e-35j), 0j],
        [(-1.825581489137647e-19-1.2373354803976546e-21j), (2.912200206915114e-19+2.005612214994255e-20j),
         0j, (8.880103855274444e-37+1.2432609386466755e-35j)],
    ],
    ((0, 0, 0), (0, 0, 0), 0.0): [
        [-0.8404602951499369j, 0j,
         (-1.0557597598478478e-18+0j), (1.2933503413565663e-17+2.701360494151273e-18j)],
        [0j, -0.8404602951499369j,
         (1.2933503413565663e-17-2.701360494151273e-18j), (1.0557597598478478e-18+0j)],
        [(-1.0557597598478478e-18+0j), (1.2933503413565663e-17+2.701360494151273e-18j),
         0.15953970485006252j, 0j],
        [(1.2933503413565663e-17-2.701360494151273e-18j), (1.0557597598478478e-18+0j),
         0j, 0.15953970485006252j],
    ],
    ((2, 1, 0), (0, 1, 2), 0.7): [
        [(0.006156356270792979-0.010987220623459961j), 0j,
         (7.33158286659328e-20-6.161852736211857e-19j), (1.1175057218327092e-18-5.46096218312324e-19j)],
        [0j, (0.006156356270792979-0.010987220623459961j),
         (-1.0891470169035045e-18+4.242212815796386e-19j), (-7.33158286659328e-20+6.161852736211857e-19j)],
        [(7.33158286659328e-20-6.161852736211857e-19j), (1.1175057218327092e-18-5.46096218312324e-19j),
         (-0.007309322476711336-0.0033996573257829656j), 0j],
        [(-1.0891470169035045e-18+4.242212815796386e-19j), (-7.33158286659328e-20+6.161852736211857e-19j),
         0j, (-0.007309322476711336-0.0033996573257829656j)],
    ],
}

EXCHANGE = {
    ('readme', 1.0, 32): ((0.014176900175464193-1.646821002228428e-37j), 0.0003534218490128879),
    ('readme', 1.0, 64): ((0.01848870085449068+5.1080554884139666e-36j), 0.00016147917254568522),
    ('readme', 2.0, 32): ((0.0038527553504759476+8.55395812425567e-37j), 8.816151226721686e-05),
    ('readme', 2.0, 64): ((0.004948850878877597+1.437893792715932e-37j), 4.060344470263571e-05),
    ('skew', 1.0, 32): ((0.011215571324476162+5.171205811076634e-20j), 0.00016947089493355696),
    ('skew', 1.0, 64): ((0.013469175954537836+5.755640820309415e-20j), 3.499893735436607e-05),
    ('skew', 2.0, 32): ((0.003066211058045934+1.4266332858438054e-20j), 4.074121862460918e-05),
    ('skew', 2.0, 64): ((0.003641562975097168-9.135954392609405e-21j), 8.244320645808976e-06),
}


@pytest.mark.parametrize("n, nhat, mu", list(GSHARP))
def test_g_sharp_frozen(n, nhat, mu):
    got = g_sharp(n, nhat, mu, CFG).value
    assert abs(got - GSHARP[(n, nhat, mu)]) <= 2e-15


@pytest.mark.parametrize("n, nhat, dt", list(SPLUS))
def test_s_plus_green_frozen(n, nhat, dt):
    got = s_plus_green(n, nhat, dt, 1.0, CFG)
    assert float(np.max(np.abs(got - np.array(SPLUS[(n, nhat, dt)])))) <= 5e-16


@pytest.mark.parametrize("name, mu, n_max", list(EXCHANGE))
def test_exchange_element_frozen(name, mu, n_max):
    want, want_tail = EXCHANGE[(name, mu, n_max)]
    kin = MollerKinematics(*KINEMATICS[name], m=1.0, mu=mu, g=1.0)
    trunc = VertexTruncation(n_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = moller_reduced_element(kin, trunc, CFG)
    assert abs(got - want) <= 1e-10 * abs(want)
    assert abs(trunc.tail_report - want_tail) <= 1e-10 * abs(want)
