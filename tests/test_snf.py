"""The class space, checked against the dense reference Smith normal
form of the test oracles, whose transforms are certified here by matrix
products and determinants."""

import random
from enum import IntEnum

import pytest

from braidfloer.snf import ClassSpace

import _oracles
from _oracles import IntMatrix, det, matmul, transpose
from _samplers import random_matrix

# the oracle's two pivot rules: a full scan of the trailing block, and
# the search that stops at the first unit, which _oracles.ClassSpace
# runs and the package's elimination follows
PIVOT_RULES = (False, True)


def M(*rows):
    return IntMatrix.from_rows(rows)


def checked(cs):
    """cs, once its invariant factors are in Smith normal form order:
    the nonzero ones are >= 2 and each divides the next, and the zeros
    (Z summands) come last."""
    factors = cs.invariant_factors()
    torsion = [f for f in factors if f]
    assert factors[len(torsion):] == (0,) * (len(factors) - len(torsion))
    assert all(f >= 2 for f in torsion), factors
    assert all(b % a == 0 for a, b in zip(torsion, torsion[1:])), factors
    return cs


def space(m):
    """The package's class space of a dense matrix, factors checked."""
    return checked(ClassSpace.from_rows(m.entries))


class TestIntMatrix:
    def test_construction_and_shape(self):
        m = M((1, 2), (3, 4), (5, 6))
        assert (m.rows, m.cols) == (3, 2)
        assert m[2, 1] == 6
        assert IntMatrix.zero(2, 3).rows == 2
        assert IntMatrix.from_rows(()).rows == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            M((1, 2), (3,))

    def test_non_integer_rejected(self):
        for bad in (1.5, True, "3"):
            with pytest.raises(TypeError, match="integer entries required"):
                M((2, 0), (1, bad))

    def test_int_subclass_accepted(self):
        class Level(IntEnum):
            LOW = 1
            HIGH = 2
        m = M((Level.LOW, 0), (3, Level.HIGH))
        assert m[1, 1] == 2

    # matmul, transpose and det are the oracles the certificates are
    # checked with

    def test_mul(self):
        a = M((1, 2), (3, 4))
        b = M((0, 1), (1, 0))
        assert matmul(a, b) == M((2, 1), (4, 3))
        assert matmul(a, M((1,), (1,))) == M((3,), (7,))
        with pytest.raises(ValueError):
            matmul(a, M((1, 2),))

    def test_trace_and_transpose(self):
        a = M((1, 2), (3, 4))
        assert a.trace() == 5
        assert transpose(a) == M((1, 3), (2, 4))
        with pytest.raises(ValueError):
            M((1, 2),).trace()

    def test_det(self):
        assert det(M((1, 1), (-1, 2))) == 3
        assert det(IntMatrix.identity(4)) == 1
        assert det(M((2, 4), (1, 2))) == 0
        assert det(M((0, 1, 2), (1, 0, 3), (4, -3, 8))) == -2
        assert det(IntMatrix.from_rows(())) == 1


class TestSmithNormalForm:
    def test_frozen_examples(self):
        examples = ((M((1, 1), (-1, 2)), (1, 3)), (M((2, 0), (0, 3)), (1, 6)),
                    (M((4, 6), (2, 4)), (2, 2)), (IntMatrix.zero(2, 3), (0, 0)),
                    (M((6,),), (6,)), (M((-6,),), (6,)))
        for m, diagonal in examples:
            for stop in PIVOT_RULES:
                res = _oracles.smith_normal_form(m, stop_at_units=stop)
                assert res.diagonal() == diagonal

    def test_certificates(self):
        rng = random.Random(71)
        for m in [random_matrix(rng) for _ in range(300)]:
            for stop in PIVOT_RULES:
                res = _oracles.smith_normal_form(m, stop_at_units=stop)
                assert matmul(matmul(res.u, m), res.v) == res.s
                assert abs(det(res.u)) == abs(det(res.v)) == 1
                diag = res.diagonal()
                for i in range(res.s.rows):
                    for j in range(res.s.cols):
                        if i != j:
                            assert res.s[i, j] == 0
                assert all(x >= 0 for x in diag)
                for prev, cur in zip(diag, diag[1:]):
                    if cur != 0:
                        assert prev != 0 and cur % prev == 0
                    # zeros only at the end
                    if prev == 0:
                        assert cur == 0

    def test_empty_shapes(self):
        for m in (IntMatrix.from_rows(()), IntMatrix.zero(0, 3),
                  IntMatrix.zero(3, 0)):
            for stop in PIVOT_RULES:
                res = _oracles.smith_normal_form(m, stop_at_units=stop)
                assert matmul(matmul(res.u, m), res.v) == res.s


def sparse_matrix(rng, units=True):
    """A matrix shaped like the ones the reports build: mostly zeros,
    the nonzeros mostly +-1, or with no unit entry at all."""
    r, c = rng.randint(0, 9), rng.randint(0, 9)
    values = (1, -1, 1, -1, 2, -3, 4) if units else (2, -2, 3, -4, 6, 9)
    density = rng.choice((0.15, 0.3, 0.6))
    return IntMatrix.from_rows(
        tuple(rng.choice(values) if rng.random() < density else 0
              for _ in range(c))
        for _ in range(r))


def random_matrices(seed, n):
    rng = random.Random(seed)
    for k in range(n):
        if k % 3 == 0:
            yield random_matrix(rng, max_dim=6, max_entry=rng.choice((2, 9)))
        else:
            yield sparse_matrix(rng, units=k % 3 == 1)


class TestSmithNormalFormAgainstFullScan:
    def test_same_transforms(self):
        # the search that stops at the first unit finds the pivot a full
        # scan finds, so the two rules make the same transforms
        for m in random_matrices(181, 3000):
            assert (_oracles.smith_normal_form(m, stop_at_units=True)
                    == _oracles.smith_normal_form(m))


class TestClassSpaceAgainstDense:
    def test_same_labels_as_the_dense_transform(self):
        # the elimination follows the oracle's pivot rule, so its U
        # has the rows of the oracle's dense U
        rng = random.Random(197)
        for m in random_matrices(181, 3000):
            vectors = [tuple(rng.randint(-9, 9) for _ in range(m.rows))
                       for _ in range(3)]
            _oracles.assert_same_class_space(
                space(m), _oracles.ClassSpace.from_matrix(m), vectors)

    def test_rows_are_not_changed(self):
        rows = [[2, 1], [-1, 0]]
        _oracles.assert_same_class_space(
            checked(ClassSpace.from_rows(rows)),
            _oracles.ClassSpace.from_matrix(M((2, 1), (-1, 0))), [(1, 0)])
        assert rows == [[2, 1], [-1, 0]]


class TestClassSpaceGroup:
    def test_unit_pivots_give_the_smith_form_group(self):
        shapes = [IntMatrix.from_rows(()), IntMatrix.zero(0, 3),
                  IntMatrix.zero(3, 0), IntMatrix.zero(3, 4),
                  M((2, 4), (6, 8)), M((0, 3, 0), (9, 0, 6)),
                  IntMatrix.identity(4), M((1, 1, 0), (0, 1, 1), (1, 0, 1))]
        for m in shapes + list(random_matrices(191, 1500)):
            # rows past the diagonal are Z summands too
            diag = _oracles.smith_normal_form(m).diagonal()
            expected = (tuple(x for x in diag if x != 1)
                        + (0,) * (m.rows - len(diag)))
            assert space(m).invariant_factors() == expected, m

    def test_cases(self):
        assert space(M((2,),)).invariant_factors() == (2,)
        assert space(IntMatrix.zero(2, 2)).invariant_factors() == (0, 0)
        assert space(M((1, 1), (-1, 2))).invariant_factors() == (3,)
        assert space(M((2, 3),)).invariant_factors() == ()
        assert space(IntMatrix.identity(3)).invariant_factors() == ()
        assert space(M((2, 0), (0, 3))).invariant_factors() == (6,)


class TestClassSpace:
    def test_finite_space(self):
        cs = space(M((1, 1), (-1, 2)))
        assert cs.invariant_factors() == (3,)
        assert cs.project((0, 0)) == (0,)

    def test_projection_kills_the_column_span(self):
        rng = random.Random(73)
        for _ in range(200):
            m = random_matrix(rng, max_dim=3, max_entry=5)
            if m.rows == 0:
                continue
            cs = space(m)
            v = [rng.randint(-9, 9) for _ in range(m.rows)]
            shift = list(v)
            for j in range(m.cols):
                k = rng.randint(-3, 3)
                for i in range(m.rows):
                    shift[i] += k * m[i, j]
            assert cs.project(v) == cs.project(shift)

    def test_element_orders(self):
        # the order of the class of v is the least k > 0 whose k * v
        # projects to 0: Z/4 x Z/6 = Z/2 x Z/12 has every divisor of 12
        cs = space(M((4, 0), (0, 6)))
        assert cs.invariant_factors() == (2, 12)
        orders = {next(k for k in range(1, 25)
                       if cs.project((k * a, k * b)) == (0, 0))
                  for a in range(4) for b in range(6)}
        assert orders == {1, 2, 3, 4, 6, 12}

    def test_projection_checks_the_shape(self):
        cs = space(M((1, 1), (-1, 2)))
        for vec in ((1,), (1, 2, 3)):
            with pytest.raises(ValueError) as exc:
                cs.project(vec)
            assert str(exc.value) == "shape mismatch"

    def test_infinite_space(self):
        cs = space(IntMatrix.zero(2, 2))
        assert cs.invariant_factors() == (0, 0)
        assert [cs.project((k, 0)) for k in range(-1, 3)] == [
            (-1, 0), (0, 0), (1, 0), (2, 0)]
