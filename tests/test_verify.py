import json
from collections import Counter

import pytest

from gf2perfect import factor, verify
from gf2perfect._intmath import euler_phi
from gf2perfect.divisors import sigma
from gf2perfect.factor import Factorization
from gf2perfect.gf2poly import ONE, X, Poly, parse
from gf2perfect.mersenne import MersennePrime, catalog, enumerate_mersenne_primes
from gf2perfect.verify import (
    CLAIM_IDS,
    check_alpha3_u2,
    check_alpha3_u2h,
    check_alpha_ranges,
    check_counting,
    check_degree_m_divisors,
    check_no_mersenne_degree_multiple_8,
    check_order_divides_degrees,
    check_p_reduction,
    check_primitivity,
    check_sigma_even_power,
    check_squarefree,
    check_U_split_square,
    failures,
    run_all,
    sigma_record,
)
from oracles import certify_verify_sweep

CAT = catalog()
M2 = MersennePrime(1, 2, CAT.lookup("M2"))
M3 = MersennePrime(1, 3, CAT.lookup("M3"))


def find_mersenne(a, b):
    return MersennePrime(a, b, parse(f"x^{a}(x+1)^{b}+1"))


def test_sigma_even_power_m2_cases():
    r = check_sigma_even_power(sigma_record(M2, 2))
    assert r.claim_id == "thm1.2-i" and r.verdict == "pass"
    assert r.witness["non_mersenne_factors"]  # sigma(M2^4) is non-Mersenne

    r = check_sigma_even_power(sigma_record(M2, 4))
    assert r.verdict == "pass"
    assert "x^6+x+1" in r.witness["non_mersenne_factors"]

    r = check_sigma_even_power(sigma_record(M2, 1))
    assert r.verdict == "out_of_scope"
    assert sorted(r.witness["mersenne_factors"]) == ["x^2+x+1", "x^4+x^3+1"]
    assert not r.witness["non_mersenne_factors"]


def test_sigma_even_power_case_ii():
    m = find_mersenne(2, 3)  # degree 5, outside the small catalog
    r = check_sigma_even_power(sigma_record(m, 1))  # 2h+1 = 3 is in the delta set
    assert r.claim_id == "thm1.2-ii" and r.verdict == "pass"
    assert r.witness["delta_primes"] == [3]
    r = check_sigma_even_power(sigma_record(m, 2))  # 2h+1 = 5: no delta prime
    assert r.verdict == "out_of_scope"


def test_squarefree():
    for h in (1, 2, 3, 7):
        assert check_squarefree(sigma_record(M2, h)).verdict == "pass"


def test_u_split_square():
    r = check_U_split_square(sigma_record(M2, 1))
    assert r.verdict == "pass"
    assert r.witness["u"] == 4 and r.witness["v"] == 2

    r = check_U_split_square(sigma_record(M2, 3))  # U_6 is a square but does not split
    assert r.verdict == "out_of_scope"
    assert r.witness["square"] is True
    assert r.witness["splits"] is False

    r = check_U_split_square(sigma_record(M2, 2))  # sigma(M2^4) irreducible: U_4 not square
    assert r.verdict == "out_of_scope"
    assert r.witness["square"] is False
    assert r.witness["reducible"] is False


def test_p_reduction():
    # one report per divisor k of 2h+1 = 9, all from the one sum
    reports = check_p_reduction(sigma_record(M2, 4, split=False))
    assert [r.params["k"] for r in reports] == [1, 3, 9]
    assert all(r.verdict == "pass" for r in reports)
    assert sigma(M2.poly**2).divides(sigma(M2.poly**8))


def test_sigma_record():
    for h in (0, -1):
        with pytest.raises(ValueError, match="h must be positive"):
            sigma_record(M2, h)
    rec = sigma_record(M2, 2, split=False)
    assert rec.fact is None and rec.s == sigma(M2.poly**4)
    assert sigma_record(M2, 2).fact.reconstruct() == rec.s


def test_alpha_ranges():
    for m in (M2, M3, find_mersenne(2, 3)):
        for h in (1, 2, 5):
            assert check_alpha_ranges(sigma_record(m, h)).verdict == "pass"
    assert check_alpha_ranges(sigma_record(M2, 5)).params == {"M": "x^3+x+1", "a": 1, "b": 2, "h": 5}


def test_alpha3_u2h():
    for p in (11, 13, 17, 19):
        r = check_alpha3_u2h(sigma_record(M2, (p - 1) // 2))
        assert r.verdict == "pass"
        assert r.witness["alpha3_M_low"] == 1 and r.witness["alpha1_M_low"] == 0
    assert check_alpha3_u2h(sigma_record(M2, 1)).verdict == "out_of_scope"  # 2h+1 = 3
    assert check_alpha3_u2h(sigma_record(M2, 4)).verdict == "out_of_scope"  # 2h+1 = 9 composite
    assert check_alpha3_u2h(sigma_record(M3, 5)).verdict == "out_of_scope"  # wrong prime


def test_alpha3_u2():
    # degree-7 Mersenne primes have omega(sigma(M^2)) = 3
    hits = 0
    for m in enumerate_mersenne_primes(8):
        r = check_alpha3_u2(sigma_record(m, 1))
        if r.verdict == "pass":
            hits += 1
            assert r.witness["omega"] >= 3
            assert r.witness["trinomial_divides"]
        else:
            assert r.verdict == "out_of_scope"
    assert hits == 4


def test_degree_m_divisors():
    r = check_degree_m_divisors(sigma_record(M3, 1))  # p = 3
    assert r.verdict == "pass" and r.params["p"] == 3
    assert CAT.lookup("M1").divides(sigma(M3.poly**2))
    for m in enumerate_mersenne_primes(5):
        for p in (3, 7, 31):
            assert check_degree_m_divisors(sigma_record(m, (p - 1) // 2)).verdict == "pass"
    with pytest.raises(ValueError):
        check_degree_m_divisors(sigma_record(M3, 63, split=False))  # p = 127


def test_order_divides_degrees():
    assert check_order_divides_degrees(sigma_record(M2, 5)).verdict == "pass"  # p = 11
    assert check_order_divides_degrees(sigma_record(M2, 4)).verdict == "out_of_scope"  # 9


def test_global_claims():
    assert check_counting().verdict == "pass"
    assert check_no_mersenne_degree_multiple_8().verdict == "pass"
    assert check_primitivity().verdict == "pass"


def test_run_all_small():
    reports = run_all(4, 2)
    assert not failures(reports)
    keys = {r.claim_id for r in reports}
    assert "thm1.2-i" in keys and "lemma3.4" in keys and "lemma3.7" in keys
    oos = [r for r in reports if r.claim_id == "thm1.2-i" and r.verdict == "out_of_scope"]
    assert {r.params["M"] for r in oos} == {"x^3+x+1", "x^3+x^2+1"}  # h = 1 cubics
    assert run_all(1, 0) == []


def _split(*factors):
    return Factorization(tuple(factors))


@pytest.mark.parametrize(
    "check, break_claim",
    [
        # a prime at multiplicity 2
        pytest.param(
            check_squarefree,
            lambda rec: rec._replace(fact=_split((rec.fact[0][0], 2), *rec.fact[1:])),
            id="lemma3.2",
        ),
        # a split of Mersenne primes only
        pytest.param(
            check_sigma_even_power,
            lambda rec: rec._replace(fact=_split((CAT.lookup("M1"), 1))),
            id="thm1.2",
        ),
        # a prime at multiplicity 2, whatever the other primes are
        pytest.param(
            check_sigma_even_power,
            lambda rec: rec._replace(fact=_split((rec.fact[0][0], 2), *rec.fact[1:])),
            id="thm1.2-repeated",
        ),
        pytest.param(check_p_reduction, lambda rec: rec._replace(s=rec.s + X), id="lemma3.4"),
        # alpha_1 of s flipped
        pytest.param(
            check_alpha_ranges,
            lambda rec: rec._replace(s=rec.s + Poly(1 << (rec.s.degree - 1))),
            id="lemma3.15",
        ),
        # x^2+x+1 in the split, while ord_11(2) = 10
        pytest.param(
            check_order_divides_degrees,
            lambda rec: rec._replace(fact=_split((CAT.lookup("M1"), 1), *rec.fact)),
            id="lemma3.8",
        ),
        # a one-prime split: M itself
        pytest.param(check_U_split_square, lambda rec: rec._replace(fact=_split((rec.m.poly, 1))), id="cor3.6"),
    ],
)
def test_checker_fails_on_a_record_that_breaks_its_claim(check, break_claim):
    # negative controls: no real record fails, so a checker that could never
    # fail would print the same stream.  The record is sigma(M2^10): 2h + 1 =
    # 11 is prime and M2 is cubic with h >= 2, and each break puts it inside
    # its claim's hypotheses
    def verdicts(rec):
        reports = check(rec)
        return {r.verdict for r in (reports if isinstance(reports, list) else [reports])}

    rec = sigma_record(M2, 5)
    assert "fail" not in verdicts(rec)
    assert "fail" in verdicts(break_claim(rec))


@pytest.mark.parametrize(
    "check, record, break_claim",
    [
        # p = 7: no irreducible of degree 3 divides s + 1
        pytest.param(
            check_degree_m_divisors,
            lambda: sigma_record(M3, 3),
            lambda rec: rec._replace(s=rec.s + ONE),
            id="cor3.13",
        ),
        # 2h + 1 = 11 is prime; U read from the split of sigma(M2^2) is
        # x^4 (x+1)^2, whose alpha_3 is 0
        pytest.param(
            check_alpha3_u2h,
            lambda: sigma_record(M2, 5),
            lambda rec: rec._replace(fact=sigma_record(M2, 1).fact),
            id="cor3.17",
        ),
        # a degree-7 prime with three primes in sigma(M^2): alpha_3 of s flipped
        pytest.param(
            check_alpha3_u2,
            lambda: sigma_record(find_mersenne(1, 6), 1),
            lambda rec: rec._replace(s=rec.s + Poly(1 << (rec.s.degree - 3))),
            id="cor3.28",
        ),
    ],
)
def test_checker_fails_on_its_own_record_broken(check, record, break_claim):
    # negative controls for the checks that read a record of their own
    # hypotheses rather than sigma(M2^10)
    rec = record()
    assert check(rec).verdict == "pass"
    assert check(break_claim(rec)).verdict == "fail"


@pytest.mark.parametrize(
    "check, name, value",
    [
        # degree 7 has Mersenne primes
        pytest.param(check_no_mersenne_degree_multiple_8, "_MULTIPLE_8_DEGREES", (7,), id="lemma3.20"),
        # 2^4 - 1 is not prime: x^4+x^3+x^2+x+1 has order 5
        pytest.param(check_primitivity, "_PRIMITIVE_EXHAUSTIVE_DEGREES", (4,), id="lemma3.9"),
        # one irreducible too many at degree 5
        pytest.param(
            check_counting,
            "count_irreducibles",
            lambda m: factor.count_irreducibles(m) + (m == 5),
            id="lemma3.7",
        ),
        # each of the other counting facts broken alone: the totient reaches
        # N(6) = 9, the lower bound is never met, and degree 7's Mersenne
        # primes outnumber a totient of 0
        pytest.param(check_counting, "euler_phi", lambda m: euler_phi(m) + 9 * (m == 6), id="lemma3.7-totient"),
        pytest.param(check_counting, "_exceeds_isqrt_bound", lambda n2, m: False, id="lemma3.7-lower-bound"),
        pytest.param(check_counting, "euler_phi", lambda m: 0 if m == 7 else euler_phi(m), id="lemma3.7-mersenne-count"),
    ],
)
def test_one_off_checker_fails_on_a_range_that_breaks_its_claim(monkeypatch, check, name, value):
    # negative controls for the checks that read no record
    assert check().verdict == "pass"
    monkeypatch.setattr(verify, name, value)
    assert check().verdict == "fail"


def test_run_all_deterministic_and_sorted():
    a = run_all(4, 3)
    b = run_all(4, 3)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]
    keys = [r.sort_key() for r in a]
    assert keys == sorted(keys)


def test_run_all_claim_filter():
    reports = run_all(4, 2, claim="lemma3.2")
    assert reports and all(r.claim_id == "lemma3.2" for r in reports)
    reports = run_all(4, 2, claim="thm1.2-ii")
    assert all(r.claim_id == "thm1.2-ii" for r in reports)
    with pytest.raises(ValueError):
        run_all(4, 2, claim="nope")
    with pytest.raises(ValueError):
        run_all(1, 0, claim="nope")  # checked before an empty sweep returns


@pytest.fixture(scope="module")
def sweep_6_12():
    return run_all(6, 12)


@pytest.mark.parametrize("claim", [*CLAIM_IDS, "thm1.2-i", "thm1.2-ii"])
def test_claim_filter_selects_exactly_its_instances(sweep_6_12, claim):
    # the filter picks which records are formed and split, so it must keep
    # every instance of the claim and no other; thm1.2 covers both cases
    expected = [r for r in sweep_6_12 if r.claim_id == claim or claim == "thm1.2" and r.claim_id.startswith(claim)]
    assert expected
    assert run_all(6, 12, claim=claim) == expected


def count_splits(monkeypatch):
    # counts verify's calls of factor_sigma_prime_power by (M mask, n)
    calls = Counter()
    split = verify.factor_sigma_prime_power

    def counting(p, n):
        calls[p.mask, n] += 1
        return split(p, n)

    monkeypatch.setattr(verify, "factor_sigma_prime_power", counting)
    return calls


def test_run_all_factors_each_piece_once(monkeypatch):
    # the sweep factors 219 distinct masks, the pieces q(M) and the
    # c = 1 + z + ... + z^n, once each
    factor._factorize_cached.cache_clear()
    run_all(6, 12)
    info = factor._factorize_cached.cache_info()
    assert info.misses == info.currsize == 219
    # every check on sigma(M^n) reads one record, so each (M, n) is split
    # once: the 270 that certify_verify_sweep(6, 30) certifies
    splits = count_splits(monkeypatch)
    factor._factorize_cached.cache_clear()
    run_all(6, 30)
    assert len(splits) == 270 and set(splits.values()) == {1}


@pytest.mark.parametrize("claim", ["lemma3.4", "lemma3.15"])
def test_claims_on_the_sum_alone_split_nothing(monkeypatch, claim):
    # lemma3.4 and lemma3.15 read sigma(M^n) alone, from the closed form
    calls = count_splits(monkeypatch)
    reports = run_all(6, 30, claim=claim)
    assert reports and {r.claim_id for r in reports} == {claim}
    assert not calls


def test_verdicts_rest_on_certified_factorizations():
    # every split the 6/30 sweep read multiplies back to its sum, and each
    # of its primes passes Rabin's test, which shares no loop with factor;
    # lemma3.4 reads sums only, so no sigma(M^0) is among the splits
    splits, nprimes, problems = certify_verify_sweep(6, 30)
    assert problems == []
    assert (splits, nprimes) == (270, 834)


def record_enumerations(monkeypatch):
    # records the max_degree of each of verify's calls of enumerate_mersenne_primes
    asked = []
    enumerate_primes = verify.enumerate_mersenne_primes

    def spy(max_degree):
        asked.append(max_degree)
        return enumerate_primes(max_degree)

    monkeypatch.setattr(verify, "enumerate_mersenne_primes", spy)
    return asked


def test_degree_budget_cuts_each_primes_h(monkeypatch):
    # the grid enumerates up to --max-degree and lemma3.7 its own fixed
    # range; DEGREE_BUDGET = 4 leaves no instance sigma(M^2h) on a prime of
    # degree 3 or more, so only x^2+x+1 is reported
    asked = record_enumerations(monkeypatch)
    monkeypatch.setattr(verify, "DEGREE_BUDGET", 4)
    reports = run_all(6, 3)
    assert [r.params["M"] for r in reports if r.claim_id == "cor3.28"] == ["x^2+x+1"]
    assert sorted(asked) == [6, verify._COUNTING_MAX_M]
    assert all(r.params.get("M", "x^2+x+1") == "x^2+x+1" for r in reports)


@pytest.mark.parametrize("claim, expected", [("lemma3.7", [24]), ("lemma3.20", []), ("lemma3.9", [])])
def test_one_off_claim_enumerates_no_grid_primes(monkeypatch, claim, expected):
    # a one-off claim reads no Mersenne prime of the grid, so only
    # lemma3.7's own count of degrees up to 24 enumerates any
    asked = record_enumerations(monkeypatch)
    reports = run_all(120, 1, claim=claim)
    assert [r.claim_id for r in reports] == [claim]
    assert asked == expected


def test_report_json_shape():
    r = check_sigma_even_power(sigma_record(M2, 1))
    obj = json.loads(r.to_json())
    assert set(obj) == {"claim", "params", "verdict", "witness"}
    assert obj["params"]["h"] == 1


def test_claim_registry():
    assert "thm1.2" in CLAIM_IDS and "lemma3.2" in CLAIM_IDS
