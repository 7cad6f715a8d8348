"""Acceptance gate: eight go/no-go criteria.

Each criterion is one test, so ``pytest -v`` shows one pass/fail line per
criterion; on success the test also prints an ``ACCEPTANCE n: PASS``
line (visible with ``pytest -s``).  All values are exact integers; the
only tolerances are the stated per-braid runtime ceilings."""

import random
import subprocess
import sys
import time

from braidfloer.braids import induced_permutation, is_transitive, parse_braid
from braidfloer.floer import _dims, suspend_dims
from braidfloer.fourmanifold import (DEFAULT_CONFIGURATION,
                                     anticanonical_tori,
                                     characteristic_numbers,
                                     configuration_from_dict)
from braidfloer.freegroup import FreeGroupEndo, FreeWord, artin_endo
from braidfloer.nielsen import (class_space, lefschetz_number,
                                nielsen_decomposition, reidemeister_trace_raw)
from braidfloer.report import build_report
from braidfloer.snf import AbelianGroup

from _oracles import (abelianization, assemble_pi1, det, fox_derivative,
                      mapping_torus_presentation, matmul, ring_add, ring_mul,
                      smith_normal_form)
from _samplers import (random_braid_word, random_free_word, random_matrix,
                       random_transitive_braid)

CALIBRATION_WORDS = ("d=2; s1", "d=3; s1 s2")


def _announce(n, detail):
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def _standard_word(d):
    return f"d={d}; " + " ".join(f"s{i}" for i in range(1, d))


def test_criterion_1_characteristic_numbers():
    """c2 = 48 and c1^2 = 0 for every transitive braid, d in 2..6."""
    rng = random.Random(2024)
    worst = 0.0
    checked = 0
    for d in range(2, 7):
        braids = [parse_braid(_standard_word(d))]
        braids += [random_transitive_braid(rng, d) for _ in range(10)]
        for b in braids:
            t0 = time.perf_counter()
            assert is_transitive(b)
            cn = characteristic_numbers(
                configuration_from_dict(DEFAULT_CONFIGURATION, b.d))
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            assert dt < 0.1, f"took {dt:.3f}s for {b.to_text()!r}"
            assert cn["c2"] == 48
            assert cn["c1_squared"] == 0
            assert (cn["chi"], cn["sigma"]) == (48, -32)
            checked += 1
    _announce(1, f"c2=48, c1^2=0 for {checked} transitive braids, "
                 f"d=2..6, worst case {worst * 1000:.2f} ms")


def test_criterion_2_pi1_abelianization():
    """Abelianization of the assembled group is Z + Z/d via SNF."""
    rng = random.Random(2025)
    worst = 0.0
    for d in range(2, 7):
        for _ in range(20):
            b = random_transitive_braid(rng, d, max_len=12)
            t0 = time.perf_counter()
            ab = abelianization(assemble_pi1(
                mapping_torus_presentation(b, artin_endo(b))))
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            assert dt < 1.0, f"took {dt:.3f}s for {b.to_text()!r}"
            assert ab == AbelianGroup(1, (d,)), b.to_text()
    _announce(2, "assembled pi1 abelianizes to Z x Z/d for 20 random "
                 f"transitive words per d=2..6, worst case {worst * 1000:.2f} ms")


def _quotient_cycle_trace(sigma):
    """Independent oracle: trace of v -> sigma(v) on Z^d modulo the
    all-ones vector, in the basis given by the first d-1 coordinates."""
    d = sigma.degree
    tr = 0
    for i in range(1, d):
        img = sigma(i)
        if img == i:
            tr += 1
        elif img == d:
            tr -= 1  # the class of e_d is -(e_1 + ... + e_(d-1))
    return tr


def test_criterion_3_lefschetz_constant():
    """Trace augmentation = Lefschetz number = 2 on transitive braids."""
    rng = random.Random(2026)
    for _ in range(200):
        d = rng.randint(2, 6)
        b = random_transitive_braid(rng, d, max_len=12)
        e_b = artin_endo(b)
        aug = sum(reidemeister_trace_raw(e_b).values())
        lef = lefschetz_number(e_b)
        oracle = 1 - _quotient_cycle_trace(induced_permutation(b))
        assert aug == lef == oracle == 2, b.to_text()
    _announce(3, "augmented Reidemeister trace = Lefschetz = quotient "
                 "permutation oracle = 2 on 200 random transitive braids")


def test_criterion_4_calibration_models():
    """Frozen decompositions for the two rotation models."""
    b2 = parse_braid("d=2; s1")
    e2 = artin_endo(b2)
    nd2 = nielsen_decomposition(e2, induced_permutation(b2))
    assert class_space(e2).group() == AbelianGroup(0, (2,))
    assert sorted(c["index"] for c in nd2["classes"]) == [1, 1]
    assert nd2["bound"] == 2

    b3 = parse_braid("d=3; s1 s2")
    e3 = artin_endo(b3)
    nd3 = nielsen_decomposition(e3, induced_permutation(b3))
    assert class_space(e3).group() == AbelianGroup(0, (3,))
    assert sorted(c["index"] for c in nd3["classes"] if c["index"]) == [1, 1]
    assert nd3["bound"] == 2
    _announce(4, "half-turn model: coker Z/2, indices (+1,+1), bound 2; "
                 "third-turn model: coker Z/3, two +1 classes, bound 2")


def test_criterion_5_identity_consistency():
    """Identity endomorphism of rank n = d-1: trace (1-n)[0], L = 2-d."""
    for d in range(2, 9):
        n = d - 1
        e = FreeGroupEndo.identity(n)
        raw = reidemeister_trace_raw(e)
        assert raw == ({FreeWord.identity(n): 1 - n} if n > 1 else {})
        assert lefschetz_number(e) == 1 - n == 2 - d
    _announce(5, "identity endomorphism gives trace (1-n)[0] and "
                 "Lefschetz 1-n = 2-d for d=2..8")


def test_criterion_6_property_suites():
    """Six exact property suites, >= 1000 random cases each."""
    cases = 1000

    rng = random.Random(31337)
    for _ in range(cases):
        rank = rng.randint(1, 4)
        u = random_free_word(rng, rank, 6)
        v = random_free_word(rng, rank, 6)
        j = rng.randint(1, rank)
        assert fox_derivative(u * v, j) == ring_add(
            fox_derivative(u, j), ring_mul({u: 1}, fox_derivative(v, j)))

    rng = random.Random(31338)
    for _ in range(cases):
        rank = rng.randint(1, 4)
        w = random_free_word(rng, rank, 6)
        one = FreeWord.identity(rank)
        acc = ring_add(*(
            ring_mul(fox_derivative(w, j),
                     ring_add({FreeWord.generator(rank, j): 1}, {one: -1}))
            for j in range(1, rank + 1)))
        assert acc == ring_add({w: 1}, {one: -1})

    rng = random.Random(31339)
    for _ in range(cases):
        m = random_matrix(rng, max_dim=4, max_entry=9)
        for stop_at_units in (False, True):
            res = smith_normal_form(m, stop_at_units=stop_at_units)
            assert matmul(matmul(res.u, m), res.v) == res.s
            assert abs(det(res.u)) == abs(det(res.v)) == 1
            diag = res.diagonal()
            assert all(x >= 0 for x in diag)
            for prev, cur in zip(diag, diag[1:]):
                assert (cur == 0) or (prev != 0 and cur % prev == 0)

    def decompose(b):
        return nielsen_decomposition(artin_endo(b), induced_permutation(b))

    rng = random.Random(31340)
    for _ in range(cases):
        d = rng.randint(2, 5)
        b = random_transitive_braid(rng, d, max_len=8)
        g = random_braid_word(rng, d, max_len=4)
        nd = decompose(b)
        nd_conj = decompose(g.compose(b.compose(g.inverse())))
        nd_inv = decompose(b.inverse())
        assert nd["bound"] == nd_conj["bound"] == nd_inv["bound"]

    rng = random.Random(31341)
    for _ in range(cases):
        d = rng.randint(2, 6)
        nd = decompose(random_transitive_braid(rng, d, max_len=10))
        lefschetz = sum(c["index"] for c in nd["classes"])
        assert lefschetz == 2
        assert nd["bound"] >= abs(lefschetz)
        assert (nd["bound"] - lefschetz) % 2 == 0

    rng = random.Random(31342)
    for _ in range(cases):
        a = _dims(rng.randint(0, 50), rng.randint(0, 50))
        b = _dims(rng.randint(0, 50), rng.randint(0, 50))
        sa, sb = suspend_dims(a), suspend_dims(b)
        s_sum = suspend_dims(_dims(a["even"] + b["even"], a["odd"] + b["odd"]))
        assert sa["euler"] == 0
        assert (s_sum["even"], s_sum["odd"]) == (sa["even"] + sb["even"],
                                                 sa["odd"] + sb["odd"])

    _announce(6, "Fox product rule, fundamental identity, SNF certificates, "
                 "conjugation/inversion invariance, bound/parity, suspension: "
                 f"{cases} random cases each")


def test_criterion_7_prediction_arithmetic():
    """Reported fiber-sum dimensions are 4x and 8x the Nielsen bound,
    with the anticanonical torus breakdown (2d-2, 2d, 2d)."""
    words = list(CALIBRATION_WORDS) + [_standard_word(d) for d in (4, 5, 6)]
    for word in words:
        report = build_report(word)
        d = report["d"]
        bound = report["nielsen"]["bound"]
        fs = report["fiber_sum"]
        assert fs["summand_total"] == 4 * bound
        assert fs["total"] == 8 * bound
        assert fs["total"] == 2 * fs["summand_total"]
        assert not fs["exact"]
        tori = report["anticanonical_tori"]
        assert tori["total"] == 6 * d - 2
        assert (tori["h1_parallel"], tori["h3_copies"], tori["h4_copies"]) \
            == (2 * d - 2, 2 * d, 2 * d)
        t = anticanonical_tori(d)
        assert t["total"] == t["h1_parallel"] + t["h3_copies"] + t["h4_copies"]
    _announce(7, "summand = 4x bound, total = 8x bound = 2x summand, "
                 "anticanonical tori 6d-2 = (2d-2) + 2d + 2d")


def test_criterion_8_determinism(tmp_path):
    """Two fresh-process runs of the batch suite emit identical bytes."""
    rng = random.Random(99)
    words = list(CALIBRATION_WORDS)
    words += [_standard_word(d) for d in range(2, 7)]
    words += [random_transitive_braid(rng, rng.randint(2, 6)).to_text()
              for _ in range(10)]
    words += [random_braid_word(rng, rng.randint(2, 6)).to_text()
              for _ in range(10)]
    words += ["d=4; s1 s3", "d=5; t1 t2^-1"]
    batch = tmp_path / "suite.txt"
    batch.write_text("# determinism suite\n\n" + "\n".join(words) + "\n")

    def run_once():
        proc = subprocess.run(
            [sys.executable, "-m", "braidfloer.cli",
             "--batch", str(batch), "--format", "json", "--refine-depth", "1"],
            capture_output=True, check=True)
        return proc.stdout

    first, second = run_once(), run_once()
    assert first == second
    assert len(first.splitlines()) == len(words)
    _announce(8, f"batch of {len(words)} braids re-run in a fresh process: "
                 "byte-identical JSON")
