"""Acceptance gate: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated budget.  Run with -v for the
per-criterion verdict lines."""

import itertools
import random
import time
from fractions import Fraction
from math import comb, factorial

import sympy
from _reference import (
    boundary_matrix,
    bracket,
    chain_list,
    field_pool,
    in_span,
    module_route_basis,
    weyl_dim,
)

from vflie.homology import homology_table
from vflie.liealg import AlgebraDescriptor
from vflie.pbw_hilbert import (
    associated_graded_presentation,
    groebner_self_test,
    hilbert_series,
    module_groebner,
    partial_sum_polynomial,
)
from vflie.spanning import (
    dilated_generators,
    graded_basis_certificate,
    shift_determinant,
    spanning_certificate,
    spanning_generators,
)
from vflie.specht import closure_basis, tspace_series
from vflie.tensormod import (
    ModuleDescriptor,
    _act_int,
    _letter_constants,
    decompose_coinduced,
    graded_dimension,
    weight_support,
)


def _report(name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, "%s exceeded budget: %.1fs >= %.1fs" % (name, elapsed, budget)
    print("%s: PASS (%.1fs)" % (name, elapsed))


def _rand_rat(rng, span=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def _jacobi_defect(u, v, w):
    """[[u,v],w] + [[v,w],u] + [[w,u],v] with its zero terms dropped."""
    out = {}
    for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
        for f, c in bracket(bracket(x, y), z).items():
            out[f] = out.get(f, 0) + c
    return {f: c for f, c in out.items() if c}


def test_criterion_01_jacobi_identity():
    t0 = time.perf_counter()
    w2 = AlgebraDescriptor(2, d=0, flavor="W")
    pool = field_pool(w2, 4)
    assert len(pool) == 42
    for a, b, c in itertools.combinations(pool, 3):
        assert _jacobi_defect({a: 1}, {b: 1}, {c: 1}) == {}, (a, b, c)
    rng = random.Random(20240)
    w3 = AlgebraDescriptor(3, d=0, flavor="W")
    pool3 = field_pool(w3, 2)
    for _ in range(100):
        u, v, w = (
            {rng.choice(pool3): rng.randint(-3, 3) for _ in range(2)} for _ in range(3)
        )
        assert _jacobi_defect(u, v, w) == {}, (u, v, w)
    _report("criterion 01 jacobi identity", t0, 10.0)


def test_criterion_02_module_axiom():
    # on the production kernel: with A_j = den * e_j (_act_int with the
    # _letter_constants bases), e_k e_m - e_m e_k = (m - k) e_(k+m) reads
    # A_k A_m - A_m A_k = den * (m - k) * A_(k+m)
    t0 = time.perf_counter()
    rng = random.Random(20241)
    for _ in range(50):
        r = rng.randint(1, 3)
        lam = tuple(_rand_rat(rng) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        desc = ModuleDescriptor(r, lam, mu)
        expo = tuple(rng.randint(0, 8 // r) for _ in range(r))
        den, bases = _letter_constants(desc, 12)

        def act(j, vec):
            return _act_int(vec, j, den, bases[j - 1])

        m = {expo: 1}
        for _pair in range(3):
            k = rng.randint(1, 6)
            km = rng.randint(1, 6)
            lhs = dict(act(k, act(km, m)))
            for e, c in act(km, act(k, m)).items():
                lhs[e] = lhs.get(e, 0) - c
            rhs = {e: den * (km - k) * c for e, c in act(k + km, m).items()}
            lhs = {e: c for e, c in lhs.items() if c}
            assert lhs == {e: c for e, c in rhs.items() if c}, (r, lam, mu, k, km)
    _report("criterion 02 module axiom", t0, 30.0)


def test_criterion_03_shift_determinant():
    t0 = time.perf_counter()
    rng = random.Random(20242)
    for _ in range(10):
        lam, mu = _rand_rat(rng), _rand_rat(rng)
        assert shift_determinant(ModuleDescriptor(1, (lam,), (mu,))) == [mu + 2 * lam, 1]
    for _ in range(10):
        r = rng.randint(1, 3)
        lam = tuple(_rand_rat(rng) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        assert shift_determinant(ModuleDescriptor(r, lam, mu))[-1] in (1, -1)
    _report("criterion 03 shift determinant", t0, 60.0)


def test_criterion_04_graded_basis_certificates():
    t0 = time.perf_counter()
    for r in (1, 2, 3):
        desc = ModuleDescriptor(r, (Fraction(0),) * r, (Fraction(0),) * r)
        for t in (1, 2, 3):
            assert graded_basis_certificate(desc, (t,) * r, r + 4)["verdict"], (r, t)
    for r in (4, 5):
        desc = ModuleDescriptor(r, (Fraction(0),) * r, (Fraction(0),) * r)
        assert graded_basis_certificate(desc, (1,) * r, r + 4)["verdict"], r
    _report("criterion 04 graded basis certificates", t0, 120.0)


def test_criterion_05_spanning_certificates():
    t0 = time.perf_counter()
    rng = random.Random(20243)
    for _ in range(10):
        r = rng.randint(1, 3)
        lam = tuple(_rand_rat(rng) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        desc = ModuleDescriptor(r, lam, mu)
        S = spanning_generators(desc)
        assert spanning_certificate(S, desc, 10)["verdict"], (r, lam, mu)
    for r in (1, 2):
        desc = ModuleDescriptor(r, (Fraction(0),) * r, (Fraction(0),) * r)
        S = dilated_generators(desc, 2)
        assert spanning_certificate(S, desc, 10, d=2)["verdict"], r
    _report("criterion 05 spanning certificates", t0, 300.0)


def test_criterion_06_hilbert_series():
    t0 = time.perf_counter()
    # dimensions against the closed-form count, harvest window 12
    for r in (1, 2):
        lam = (Fraction(0),) * r
        desc = ModuleDescriptor(r, lam, lam)
        S = [tuple(s) for s in spanning_generators(desc)]
        gb = module_groebner(associated_graded_presentation(desc, S, 12))
        assert groebner_self_test(gb)
        series = hilbert_series(gb)
        dims = [int(c) for c in series.expand(12)]
        assert dims == [comb(w + r - 1, r - 1) for w in range(13)]
    # a certified-free module: no relations, series collapses to (1-t)^(-r)
    lam2, mu2 = (Fraction(1), Fraction(1)), (Fraction(0), Fraction(0))
    desc = ModuleDescriptor(2, lam2, mu2)
    S = [tuple(s) for s in spanning_generators(desc)]
    pres = associated_graded_presentation(desc, S, 12)
    assert not pres.relations
    series = hilbert_series(module_groebner(pres))
    assert series.to_dict() == {"num": [1], "den": [1, -2, 1]}
    # partial sums of binom(w+1, 1) form a degree-2 polynomial with
    # normalized leading coefficient 2! * 1/2! = 1, an integer
    coeffs, degree, lead = partial_sum_polynomial(series, 12)
    assert degree == 2
    assert lead == 1 and isinstance(lead, int)
    assert coeffs[-1] * factorial(degree) == lead
    _report("criterion 06 hilbert series", t0, 120.0)


def test_criterion_07_low_degree_homology_window():
    t0 = time.perf_counter()
    alg = AlgebraDescriptor(1, d=1, flavor="L")
    triv = ModuleDescriptor(0, (), ())
    for p in (1, 2):
        for w in range(0, 11):
            # d o d = 0, the product taken by sympy
            a = boundary_matrix(alg, triv, p, w)
            b = boundary_matrix(alg, triv, p + 1, w)
            assert (a * b).is_zero_matrix, (p, w)
    table = homology_table(alg, triv, 2, 10)
    nonzero = sorted((p, w) for (p, w), v in table.items() if v)
    assert nonzero == [(0, 0), (1, 1), (1, 2), (2, 5), (2, 7)]
    assert all(table[key] == 1 for key in nonzero)
    _report("criterion 07 low degree homology window", t0, 120.0)


def test_criterion_08_homology_with_coefficients():
    t0 = time.perf_counter()
    cases = (
        (AlgebraDescriptor(1, d=2, flavor="L"), ModuleDescriptor(0, (), ())),
        (
            AlgebraDescriptor(1, d=1, flavor="L"),
            ModuleDescriptor(1, (Fraction(1),), (Fraction(0),)),
        ),
    )
    for alg, coeffs in cases:
        table = homology_table(alg, coeffs, 2, 8)
        assert all(isinstance(v, int) and v >= 0 for v in table.values())
        # Euler characteristic per weight over every p with nonzero chains
        for w in range(0, 9):
            dims = []
            p = 0
            while True:
                c = len(chain_list(alg, coeffs, p, w))
                dims.append(c)
                if c == 0 and p * alg.min_weight + (p * (p - 1)) // 2 > w:
                    break
                p += 1
            p_top = len(dims) - 1
            full = homology_table(alg, coeffs, p_top, w)
            chi_chain = sum((-1) ** q * c for q, c in enumerate(dims))
            chi_hom = sum((-1) ** q * full[(q, w)] for q in range(p_top + 1))
            assert chi_chain == chi_hom, (alg.label(), w)
    _report("criterion 08 homology with coefficients", t0, 180.0)


def test_criterion_09_substitution_closure():
    t0 = time.perf_counter()
    # single variable: dims 1 in every positive weight, series t/(1 - t)
    ts = closure_basis([{(1,): Fraction(1)}], 1, 12)
    assert ts.dimensions() == [0] + [1] * 12
    fit = tspace_series(ts)
    assert not fit["inconclusive"]
    assert fit["num"] == [0, 1] and fit["den"] == [1, -1]
    # agreement with the diagonal tensor-module route on random generators
    rng = random.Random(20244)
    for _ in range(5):
        n = rng.randint(1, 3)
        gens = []
        for _g in range(rng.randint(1, 2)):
            terms = {}
            for _t in range(rng.randint(1, 3)):
                expo = tuple(rng.randint(0, 2) for _ in range(n))
                if sum(expo):
                    terms[expo] = Fraction(rng.randint(-3, 3))
            if terms:
                gens.append(terms)
        if not gens:
            continue
        ts_n = closure_basis(gens, n, 8)
        basis = module_route_basis(gens, n, 8)
        assert ts_n.dimensions() == [len(basis.get(w, ())) for w in range(9)]
    # sampled substitutions x_i -> p(x_i), taken by sympy, stay inside the
    # computed closure
    ts2 = closure_basis([{(1, 1): Fraction(1)}], 2, 10)
    x = sympy.symbols("x1:3")
    for _ in range(20):
        p = {k: rng.randint(-3, 3) for k in range(1, 4)}
        if not any(p.values()):
            continue
        w = rng.choice([w for w in range(2, 6) if ts2.graded_basis.get(w)])
        g = rng.choice(ts2.graded_basis[w])
        images = {v: sum(c * v**k for k, c in p.items()) for v in x}
        image = sympy.Poly.from_dict(g, *x).as_expr().subs(images, simultaneous=True)
        terms = sympy.Poly(image, *x).as_dict()
        low = {e: Fraction(str(c)) for e, c in terms.items() if sum(e) <= ts2.cutoff}
        assert in_span(ts2.graded_basis, low), (p, w)
    _report("criterion 09 substitution closure", t0, 120.0)


def test_criterion_10_weight_supports():
    t0 = time.perf_counter()

    lams2 = [(a, b) for a in range(4) for b in range(a + 1)]
    lams3 = [(a, b, c) for a in range(4) for b in range(a + 1) for c in range(b + 1)]
    for lam in lams2 + lams3:
        n = len(lam)
        support = weight_support(lam, n)
        assert sum(wv.multiplicity for wv in support) == weyl_dim(lam), lam
        modules = decompose_coinduced(lam, n)
        assert sum(m for _d, m in modules) == weyl_dim(lam), lam
        for w in range(7):
            total = sum(m * graded_dimension(d, w) for d, m in modules)
            assert total == weyl_dim(lam) * comb(w + n - 1, n - 1), (lam, w)
    _report("criterion 10 weight supports", t0, 60.0)
