"""Exact integer matrices, Smith normal form with certified transforms,
cokernels, and the canonical class space coordinates."""

import random
from enum import IntEnum

import pytest

from braidfloer.snf import (AbelianGroup, ClassSpace, IntMatrix, cokernel,
                            smith_normal_form)

import _oracles
from _oracles import det, matmul, transpose
from _samplers import random_matrix


def M(*rows):
    return IntMatrix.from_rows(rows)


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
        assert smith_normal_form(M((1, 1), (-1, 2))).diagonal() == (1, 3)
        assert smith_normal_form(M((2, 0), (0, 3))).diagonal() == (1, 6)
        assert smith_normal_form(M((4, 6), (2, 4))).diagonal() == (2, 2)
        assert smith_normal_form(IntMatrix.zero(2, 3)).diagonal() == (0, 0)
        assert smith_normal_form(M((6,),)).diagonal() == (6,)
        assert smith_normal_form(M((-6,),)).diagonal() == (6,)

    def test_certificates(self):
        rng = random.Random(71)
        for _ in range(300):
            m = random_matrix(rng)
            res = smith_normal_form(m)
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
            res = smith_normal_form(m)
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
        # the pivot search may stop early, but at the same pivot
        for m in random_matrices(181, 3000):
            assert smith_normal_form(m) == _oracles.smith_normal_form(m)


class TestClassSpaceAgainstDense:
    def test_same_labels_as_the_dense_transform(self):
        # the row-operation log replays the rows of the dense U
        rng = random.Random(197)
        for m in random_matrices(181, 3000):
            vectors = [tuple(rng.randint(-9, 9) for _ in range(m.rows))
                       for _ in range(3)]
            _oracles.assert_same_class_space(
                ClassSpace.from_matrix(m), _oracles.ClassSpace.from_matrix(m),
                vectors)

    def test_rows_are_not_changed(self):
        rows = [{0: 2, 1: 1}, {0: -1}]
        assert ClassSpace.from_rows(rows, 2) == ClassSpace.from_matrix(
            M((2, 1), (-1, 0)))
        assert rows == [{0: 2, 1: 1}, {0: -1}]


class TestCokernel:
    def test_unit_pivots_give_the_smith_form_group(self):
        shapes = [IntMatrix.from_rows(()), IntMatrix.zero(0, 3),
                  IntMatrix.zero(3, 0), IntMatrix.zero(3, 4),
                  M((2, 4), (6, 8)), M((0, 3, 0), (9, 0, 6)),
                  IntMatrix.identity(4), M((1, 1, 0), (0, 1, 1), (1, 0, 1))]
        for m in shapes + list(random_matrices(191, 1500)):
            # the package's smith_normal_form runs cokernel's elimination
            diag = _oracles.smith_normal_form(m).diagonal()
            expected = AbelianGroup(
                free_rank=m.rows - sum(1 for x in diag if x),
                torsion=tuple(x for x in diag if x > 1))
            assert cokernel(m) == expected, m

    def test_cases(self):
        assert cokernel(M((2,),)) == AbelianGroup(0, (2,))
        assert cokernel(IntMatrix.zero(2, 2)) == AbelianGroup(2, ())
        assert cokernel(M((1, 1), (-1, 2))) == AbelianGroup(0, (3,))
        assert cokernel(M((2, 3),)) == AbelianGroup(0, ())
        assert cokernel(IntMatrix.identity(3)) == AbelianGroup(0, ())
        assert cokernel(M((2, 0), (0, 3))) == AbelianGroup(0, (6,))

    def test_group_api(self):
        g = AbelianGroup(1, (2, 4))
        assert g.order() is None
        assert g.pretty() == "Z x Z/2 x Z/4"
        assert AbelianGroup(0, (5,)).order() == 5
        assert AbelianGroup(0, ()).pretty() == "0"
        with pytest.raises(ValueError):
            AbelianGroup(0, (3, 4))  # no divisibility
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))


class TestClassSpace:
    def test_finite_space(self):
        cs = ClassSpace.from_matrix(M((1, 1), (-1, 2)))
        assert cs.invariant_factors() == (3,)
        assert cs.group() == AbelianGroup(0, (3,))
        assert cs.order() == 3
        assert cs.enumerate_labels() == ((0,), (1,), (2,))
        assert cs.project((0, 0)) == (0,)

    def test_projection_kills_the_column_span(self):
        rng = random.Random(73)
        for _ in range(200):
            m = random_matrix(rng, max_dim=3, max_entry=5)
            if m.rows == 0:
                continue
            cs = ClassSpace.from_matrix(m)
            v = [rng.randint(-9, 9) for _ in range(m.rows)]
            shift = list(v)
            for j in range(m.cols):
                k = rng.randint(-3, 3)
                for i in range(m.rows):
                    shift[i] += k * m[i, j]
            assert cs.project(v) == cs.project(shift)

    def test_element_orders(self):
        cs = ClassSpace.from_matrix(M((4, 0), (0, 6)))
        assert cs.invariant_factors() == (2, 12)
        orders = {cs.element_order(label) for label in cs.enumerate_labels()}
        assert orders == {1, 2, 3, 4, 6, 12}
        assert cs.element_order((0, 0)) == 1

    def test_infinite_space(self):
        cs = ClassSpace.from_matrix(IntMatrix.zero(2, 2))
        assert cs.order() is None
        assert cs.element_order((1, 0)) == 0
        with pytest.raises(ValueError):
            cs.enumerate_labels()
