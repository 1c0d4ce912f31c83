"""The finite-difference oracle for expansion.oscillator_spectrum.

test_expansion and test_acceptance compare the closed-form shifted
oscillator spectrum against this sparse eigensolve.  It lives with the
tests because no stage of the program uses it, and it is the one user of
scipy.sparse.
"""

import numpy as np

from radialscope.expansion import OscillatorSpec

# 8th-order central stencils, offsets +1..+4 (first derivative is odd,
# second derivative even with the stated center weight)
_D1_PLUS = (4 / 5, -1 / 5, 4 / 105, -1 / 280)
_D2_PLUS = (8 / 5, -1 / 5, 8 / 315, -1 / 560)
_D2_CENTER = -205 / 72


def oscillator_spectrum_grid(spec: OscillatorSpec, k_max: int,
                             domain: tuple[float, float] = (-20.0, 20.0),
                             npts: int = 2000) -> np.ndarray:
    """Finite-difference eigensolve of Q~ = p D^2 + q~ (YD + DY) + c Y^2.

    High-order central differences on a uniform grid with Dirichlet
    boundaries; the test oracle for the closed form.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    lo, hi = domain
    ys = np.linspace(lo, hi, npts)
    h = ys[1] - ys[0]
    n = npts

    offs = [-4, -3, -2, -1, 0, 1, 2, 3, 4]
    d1_diags = [-_D1_PLUS[3], -_D1_PLUS[2], -_D1_PLUS[1], -_D1_PLUS[0], 0.0,
                _D1_PLUS[0], _D1_PLUS[1], _D1_PLUS[2], _D1_PLUS[3]]
    d2_diags = [_D2_PLUS[3], _D2_PLUS[2], _D2_PLUS[1], _D2_PLUS[0], _D2_CENTER,
                _D2_PLUS[0], _D2_PLUS[1], _D2_PLUS[2], _D2_PLUS[3]]

    D1 = sp.diags(d1_diags, offs, shape=(n, n), format="csr") / h
    D2 = sp.diags(d2_diags, offs, shape=(n, n), format="csr") / (h * h)
    Y = sp.diags(ys, 0, format="csr")

    # Q~ with D = -i d/dY: p D^2 = -p d^2; q~(YD + DY) = -i q~ (Y d + d Y)
    H = (-spec.p) * D2 + spec.c * (Y @ Y) \
        + (-1j) * spec.q_tilde * (Y @ D1 + D1 @ Y)
    vals = spla.eigsh(H.tocsc(), k=k_max + 1, sigma=0.0, which="LM",
                      return_eigenvectors=False)
    return np.sort(vals.real)
