"""Acceptance suite: one test per pinned criterion, bit-exact throughout.

Each test prints a single `[acceptance] criterion N ...: PASS/FAIL` line
(visible with `pytest -s`).  All algebra is exact, so every comparison
is plain equality; the only tolerances are the stated runtime caps.
"""

import random
import subprocess
import sys
import time

from gf2perfect.cli import main as cli_main
from gf2perfect.divisors import check, sigma, sigma_star
from gf2perfect import euler_phi
from gf2perfect.factor import count_irreducibles, factorize, is_irreducible
from gf2perfect.divisors import canonical_class_rep
from gf2perfect.gf2poly import ONE, X, XP1, Poly, parse
from gf2perfect.mersenne import catalog, enumerate_mersenne_primes, in_delta, mersenne_form
from gf2perfect.search import classify_hits, search_bruteforce, search_structured
from gf2perfect.verify import run_all, failures
from gf2perfect._intmath import prime_factors
from oracles import is_even_poly, sigma_oracle, sigma_star_oracle

CAT = catalog()


def finish(name, problems):
    status = "PASS" if not problems else f"FAIL {problems}"
    print(f"[acceptance] {name}: {status}")
    assert not problems, problems


def test_criterion_01_nine_perfects():
    problems = []
    start = time.perf_counter()
    for i in range(1, 10):
        t = CAT.lookup(f"T{i}")
        if sigma(t) != t:
            problems.append(f"sigma(T{i}) != T{i}")
        if not check(t, "perfect").verdict:
            problems.append(f"report false for T{i}")
        if cli_main(["check", "--mode", "perfect", f"T{i}"]) != 0:
            problems.append(f"cli exit for T{i}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    finish("criterion 1 (nine perfect polynomials)", problems)


def test_criterion_02_nine_unitary_classes():
    problems = []
    start = time.perf_counter()
    for i in range(1, 10):
        b = CAT.lookup(f"B{i}")
        for n in range(4):
            a = b ** (1 << n)
            if sigma_star(a) != a:
                problems.append(f"sigma*(B{i}^{1 << n}) mismatch")
        if cli_main(["check", "--mode", "unitary", f"B{i}"]) != 0:
            problems.append(f"cli exit for B{i}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    finish("criterion 2 (nine unitary classes and their 2-power lifts)", problems)


def test_criterion_03_counterexamples():
    problems = []
    r1 = check(CAT.lookup("S1"), "perfect")
    if r1.verdict or r1.witness != (X, 13, 7):
        problems.append(f"S1 report {r1.verdict} {r1.witness}")
    r2 = check(CAT.lookup("S2"), "unitary")
    if r2.verdict or r2.witness != (X, 14, 10):
        problems.append(f"S2 report {r2.verdict} {r2.witness}")
    if cli_main(["check", "--mode", "perfect", "S1"]) != 1:
        problems.append("cli exit code for S1")
    finish("criterion 3 (counterexample witnesses)", problems)


def test_criterion_04_classification_reproduction():
    problems = []
    start = time.perf_counter()

    hits = search_structured(36, "perfect")
    trivials = {(X * XP1) ** ((1 << n) - 1) for n in range(1, 5)}  # degrees 2, 6, 14, 30
    if set(hits) != trivials | set(CAT.perfects):
        problems.append("perfect hits at degree 36 differ from trivials + the nine")

    uhits = search_structured(30, "unitary")
    classes = classify_hits(uhits, "unitary")
    nontrivial = [c for c in classes if not c.trivial]
    expected_reps = {canonical_class_rep(b) for b in CAT.unitary_perfects}
    if {c.rep for c in nontrivial} != expected_reps:
        problems.append("unitary class representatives differ from the nine classes")
    if not all(c.in_catalog for c in nontrivial):
        problems.append("a unitary class is not cataloged")
    # unfiltered members are exactly the in-budget 2-powers (and conjugates)
    expected_members = set()
    for b in CAT.unitary_perfects:
        for c in (b, b.bar()):
            n = 0
            while c.degree * (1 << n) <= 30:
                expected_members.add(c ** (1 << n))
                n += 1
    got_members = {m for c in nontrivial for m in c.members}
    if got_members != expected_members:
        problems.append("unitary members differ from in-budget 2-powers")
    trivial_classes = [c for c in classes if c.trivial]
    if [c.rep for c in trivial_classes] != [X * XP1]:
        problems.append("trivial unitary family not reported as the x(x+1) class")

    # brute-force oracle agreement on its range, both modes
    for mode in ("perfect", "unitary"):
        brute = search_bruteforce(16, mode)
        restricted = sorted(
            p
            for p in brute
            if all(q == X or q == XP1 or mersenne_form(q) is not None for q, _ in factorize(p))
        )
        structured16 = search_structured(16, mode)
        if restricted != structured16:
            problems.append(f"oracle disagreement at degree 16 in {mode} mode")

    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        problems.append(f"runtime {elapsed:.1f}s >= 10min")
    finish("criterion 4 (classification reproduced by both search routes)", problems)


def test_criterion_05_even_power_sweep():
    problems = []
    start = time.perf_counter()
    checked = 0
    for m in enumerate_mersenne_primes(6):
        in_small_catalog = m.poly in CAT.mersennes
        for h in range(1, 31):
            if in_small_catalog:
                applicable = m.degree != 3 or h >= 2
            else:
                applicable = any(q != 7 and in_delta(q) for q in prime_factors(2 * h + 1))
            if not applicable:
                continue
            fact = factorize(sigma(m.poly ** (2 * h)))
            if not fact.is_squarefree:
                problems.append(f"not squarefree at ({m.a},{m.b}) h={h}")
            if all(p == X or p == XP1 or mersenne_form(p) is not None for p, _ in fact):
                problems.append(f"no non-Mersenne factor at ({m.a},{m.b}) h={h}")
            checked += 1
    # 5 catalog primes x 30 minus the two h=1 cubic exclusions gives 148;
    # each of the 4 degree-5/6 primes qualifies at 12 of the 30 h values
    if checked != 196:
        problems.append(f"sweep covered {checked} instances, expected 196")
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.1f}s >= 5min")
    finish("criterion 5 (even-power sweep, degree <= 6, h <= 30)", problems)


def test_criterion_06_pinned_factorizations():
    problems = []
    m2 = CAT.lookup("M2")
    s8 = sigma(m2**8)
    pinned = [("x^2+x+1", 1), ("x^4+x^3+1", 1), ("x^6+x+1", 1), ("x^12+x^8+x^7+x^4+1", 1)]
    if [(str(p), k) for p, k in factorize(s8)] != pinned:
        problems.append("sigma(M2^8) factorization mismatch")
    if mersenne_form(parse("x^6+x+1")) is not None:
        problems.append("x^6+x+1 classified as Mersenne")
    u4 = sigma(sigma(m2**4))
    if u4 != parse("x^3(x+1)^6(x^3+x+1)"):
        problems.append("U_4 mismatch")
    u6 = sigma(sigma(m2**6))
    if u6 != parse("x^8(x+1)^4(x^3+x+1)^2"):
        problems.append("U_6 mismatch")
    if not u6.is_square():
        problems.append("U_6 not a square")
    if u6 == (XP1 ** u6.valuation(XP1) << u6.valuation(X)):
        problems.append("U_6 unexpectedly splits")
    finish("criterion 6 (pinned factorizations)", problems)


def test_criterion_07_divisor_sum_tables():
    problems = []
    m1 = CAT.lookup("M1")
    m2, m2b = CAT.lookup("M2"), CAT.lookup("M2b")
    m3, m3b = CAT.lookup("M3"), CAT.lookup("M3b")
    for n in range(5):
        e = 1 << n
        rows = [
            (sigma(X ** (3 * e - 1)), XP1 ** (e - 1) * m1**e),
            (sigma(X ** (5 * e - 1)), XP1 ** (e - 1) * m3**e),
            (sigma(X ** (7 * e - 1)), XP1 ** (e - 1) * m2**e * m2b**e),
            (sigma(XP1 ** (3 * e - 1)), X ** (e - 1) * m1**e),
            (sigma(XP1 ** (5 * e - 1)), X ** (e - 1) * m3b**e),
            (sigma(XP1 ** (7 * e - 1)), X ** (e - 1) * m2**e * m2b**e),
            (sigma(m2 ** (3 * e - 1)), (ONE + m2) ** (e - 1) * m1**e * m3b**e),
            (sigma(m2b ** (3 * e - 1)), (ONE + m2b) ** (e - 1) * m1**e * m3**e),
            (sigma_star(X ** (3 * e)), XP1**e * m1**e),
            (sigma_star(X ** (5 * e)), XP1**e * m3**e),
            (sigma_star(X ** (7 * e)), XP1**e * m2**e * m2b**e),
            (sigma_star(XP1 ** (3 * e)), X**e * m1**e),
            (sigma_star(XP1 ** (5 * e)), X**e * m3b**e),
            (sigma_star(XP1 ** (7 * e)), X**e * m2**e * m2b**e),
            (sigma_star(m2 ** (3 * e)), (ONE + m2) ** e * m1**e * m3b**e),
            (sigma_star(m2b ** (3 * e)), (ONE + m2b) ** e * m1**e * m3**e),
        ]
        for row, (got, want) in enumerate(rows):
            if got != want:
                problems.append(f"table row {row} fails at n={n}")
    # sum-of-unitary-divisors identity on 200 random (S, n, u) triples
    rng = random.Random(2712)
    primes = [p for p in (Poly(m) for m in range(2, 600)) if is_irreducible(p)]
    for _ in range(200):
        s = rng.choice(primes)
        n = rng.randrange(0, 5)
        u = rng.choice((1, 3, 5, 7, 9))
        lhs = sigma_star(s ** ((1 << n) * u))
        rhs = (ONE + s) ** (1 << n) * sigma(s ** (u - 1)) ** (1 << n)
        if lhs != rhs:
            problems.append(f"identity fails for {s}, n={n}, u={u}")
            break
    finish("criterion 7 (all six divisor-sum table families)", problems)


def test_criterion_08_counting():
    problems = []
    if (count_irreducibles(4), count_irreducibles(5)) != (3, 6):
        problems.append("irreducible counts at 4, 5")
    if (euler_phi(4), euler_phi(5)) != (2, 4):
        problems.append("totients at 4, 5")
    for m in range(4, 25):
        n2 = count_irreducibles(m)
        if not euler_phi(m) < n2:
            problems.append(f"totient bound fails at {m}")
        rhs = (1 << m) + 2 - n2 * m  # exact check of the 2^(m/2) lower bound
        if rhs > 0 and 4 * (1 << m) < rhs * rhs:
            problems.append(f"lower bound fails at {m}")
    by_degree = {}
    for mp in enumerate_mersenne_primes(24):
        by_degree.setdefault(mp.degree, []).append(mp)
    for d, entries in by_degree.items():
        if len(entries) > euler_phi(d):
            problems.append(f"too many Mersenne primes at degree {d}")
    for d in (8, 16, 24):
        if by_degree.get(d):
            problems.append(f"Mersenne prime found at degree {d}")
    finish("criterion 8 (counting facts)", problems)


def test_criterion_09_coefficient_claims():
    problems = []
    m2 = CAT.lookup("M2")
    for p in (11, 13, 17, 19):
        u = sigma(sigma(m2 ** (p - 1)))
        if u.alpha(3) != 1:
            problems.append(f"alpha_3 at 2h+1={p}")
    qualifying = 0
    for m in enumerate_mersenne_primes(8):
        if m.poly in CAT.mersennes:
            continue
        s = sigma(m.poly**2)
        if len(factorize(s)) < 3:
            continue
        qualifying += 1
        if sigma(s).alpha(3) != 1:
            problems.append(f"alpha_3(U_2) at ({m.a},{m.b})")
    if qualifying == 0:
        problems.append("no qualifying Mersenne primes of degree <= 8")
    finish("criterion 9 (coefficient claims)", problems)


def test_criterion_10_property_suites():
    problems = []
    rng = random.Random(1009)

    for _ in range(200):  # ring axioms at degree <= 512
        p, q, r = (Poly(rng.getrandbits(513)) for _ in range(3))
        if (p * q) * r != p * (q * r) or p * (q + r) != p * q + p * r or p * q != q * p:
            problems.append("ring axiom failure")
            break

    for mask in range(1, 1 << 13):  # oracle agreement, exhaustive to degree 12
        a = Poly(mask)
        if sigma(a) != sigma_oracle(a) or sigma_star(a) != sigma_star_oracle(a):
            problems.append(f"oracle disagreement at mask {mask}")
            break

    for _ in range(10_000):  # factorization reconstruction on random inputs
        a = Poly(rng.getrandbits(rng.randrange(2, 130)))
        if not a or a.degree < 1:
            continue
        fact = factorize(a)
        if fact.reconstruct() != a:
            problems.append(f"reconstruction failure at {a.mask:#x}")
            break

    # conjugate/power closure and evenness on every unitary hit
    uhits = search_structured(24, "unitary")
    for c in uhits:
        if not is_even_poly(c):
            problems.append(f"unitary hit {c} is odd")
        if sigma_star(c.bar()) != c.bar():
            problems.append(f"conjugate of {c} not unitary perfect")
        for r in range(1, 4):
            lifted = c ** (1 << r)
            if sigma_star(lifted) != lifted:
                problems.append(f"2-power lift of {c} not unitary perfect")

    cmd = [sys.executable, "-m", "gf2perfect", "verify", "--max-degree", "6", "--max-h", "30", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    if first.returncode != 0 or second.returncode != 0:
        problems.append("verify sweep reported failures")
    if first.stdout != second.stdout or not first.stdout:
        problems.append("verify sweep not byte-identical across runs")
    reports = run_all(6, 30)
    if failures(reports):
        problems.append(f"{len(failures(reports))} claim failures in run_all(6, 30)")

    finish("criterion 10 (property suites and determinism)", problems)
