"""The paper's test-module closure under the rescaled bracket, as a test oracle.

At a real-block radial point the test module is generated by the boundary
symbols of resonance.module_order; its closure says that the bracket of
two generator products re-expands into monomials whose induced products
decay no slower than the pair's budget s~(alpha) + s~(beta).
test_resonance checks it here because no stage of the program uses it.
"""

from dataclasses import dataclass

from radialscope.radial import RadialPoint
from radialscope.resonance import InvalidInputError, module_multiindex, module_order, s_alpha
from radialscope.symalg import EXACT, WeightedPolynomial, bracket, compositions


@dataclass
class ModuleClosureReport:
    pairs_checked: int
    violations: list
    eigen_relations_ok: bool

    @property
    def closed(self) -> bool:
        return not self.violations


def module_closure_check(rp: RadialPoint, max_degree: int = 3) -> ModuleClosureReport:
    """Symbolic closure check of the test module under the rescaled bracket.

    For every pair of generator products A^alpha, A^beta with
    |alpha| + |beta| <= max_degree, the bracket of their symbols is
    re-expanded in monomials; each monomial's induced generator product
    gamma must satisfy s~(gamma) <= s~(alpha) + s~(beta).  Real-block
    radial points only.
    """
    if not rp.layout.is_real_block:
        raise InvalidInputError("symbolic closure check requires a real-block model")
    rec = module_order(rp)
    mode = rp.mode
    lay = rp.layout
    model = rp.model
    p0 = model.p0()

    symbols = [p0 if g.slot == 0
               else WeightedPolynomial.y(lay, g.slot - 1, mode) if g.slot < lay.n
               else WeightedPolynomial.mu(lay, g.slot - lay.n, mode)
               for g in rec.generators]

    ngen = len(symbols)
    violations = []
    pairs = 0

    def products(max_total: int):
        for total in range(1, max_total + 1):
            yield from compositions(ngen, total)

    def symbol_power(counts):
        poly = None
        for sym, e in zip(symbols, counts):
            for _ in range(e):
                poly = sym if poly is None else poly * sym
        return poly

    # eigen relations {{p0, gen}} = R * gen for single generators
    eigen_ok = True
    for g, sym in zip(rec.generators, symbols):
        if g.slot == 0:
            continue
        got = bracket(p0, sym)
        (key, _), = sym.items()
        expect = sym.scale(model.eigenvalue(key))
        eigen_ok = eigen_ok and (got - expect).chop(1e-10).is_zero()

    for ca in products(max_degree - 1):
        for cb in products(max_degree - sum(ca)):
            pairs += 1
            _, st_a = s_alpha(rec, ca)
            _, st_b = s_alpha(rec, cb)
            budget = st_a + st_b
            br = bracket(symbol_power(ca), symbol_power(cb))
            for key, _ in br.items():
                gamma = module_multiindex(key, rec)
                _, st_g = s_alpha(rec, gamma)
                if st_g > budget + (0 if mode == EXACT else 1e-12):
                    violations.append({"alpha": ca, "beta": cb,
                                       "monomial": key,
                                       "s_tilde": float(st_g), "budget": float(budget)})
    return ModuleClosureReport(pairs_checked=pairs, violations=violations,
                               eigen_relations_ok=eigen_ok)
