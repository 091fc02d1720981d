"""Product root systems, their sign-flip groups, and the orbit distance."""

import numpy as np
import pytest

from dunkllab import (InvalidRootSystemError, ReflectionGroup,
                      RootSystemSpec, orbit_distance,
                      orbit_distance_pairwise, product_z2, rank1)

SQRT2 = np.sqrt(2.0)


def _axis_flip(group, j):
    """The element of the sign-flip group that negates axis j only."""
    flips = np.eye(group.dim, dtype=bool)[j]
    (mat,) = [m for m in group.matrices if np.array_equal(np.diag(m) < 0, flips)]
    return mat


class TestReflection:
    """The single-axis flips of the group are the reflections in the roots."""

    def test_reflection_fixes_hyperplane(self):
        sigma = _axis_flip(ReflectionGroup(2), 0)
        y = np.array([0.0, 3.7])
        assert np.allclose(sigma @ y, y)

    def test_reflection_negates_root(self):
        group = ReflectionGroup(2)
        for j in range(2):
            alpha = SQRT2 * np.eye(2)[j]
            for root in (alpha, -alpha):
                assert np.allclose(_axis_flip(group, j) @ root, -root)

    def test_reflection_is_involution(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(5, 2))
        for g in ReflectionGroup(2).matrices:
            assert np.allclose(pts @ g.T @ g.T, pts)

    def test_reflection_matrix_matches_pointwise(self):
        # sigma_a(x) = x - 2 <x, a> a / |a|^2 for a = +-sqrt(2) e_j is the
        # flip of axis j, which the Dunkl operators form as sigma_j
        group = ReflectionGroup(2)
        x = np.array([0.3, -1.1])
        for j in range(2):
            alpha = SQRT2 * np.eye(2)[j]
            mat = _axis_flip(group, j)
            expect = np.eye(2) - 2.0 * np.outer(alpha, alpha) / (alpha @ alpha)
            assert np.allclose(mat, expect)
            assert np.allclose(mat @ x,
                               x - 2.0 * (x @ alpha) / (alpha @ alpha) * alpha)


def _old_n_h(ks):
    """N_h as the root-list constructor built it: dim plus the sum of the
    multiplicities k_j, k_j listed once for each of +-sqrt(2) e_j."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    mult = []
    for k in ks:
        mult.extend([k, k])
    return ks.size + float(np.sum(np.array(mult)))


class TestConstructors:
    def test_rank1_group_is_sign_flip(self):
        group = ReflectionGroup(rank1(1.0).dim)
        assert group.order == 2
        mats = sorted(m[0, 0] for m in group.matrices)
        assert mats == [-1.0, 1.0]

    def test_product_group_order(self):
        group = ReflectionGroup(product_z2([0.5, 0.5]).dim)
        assert group.order == 4
        assert len(group.matrices) == 4

    def test_group_matrices_in_order_byte_for_byte(self):
        one = np.array([[[1.0]], [[-1.0]]])
        two = np.array([np.diag([1.0, 1.0]), np.diag([1.0, -1.0]),
                        np.diag([-1.0, 1.0]), np.diag([-1.0, -1.0])])
        assert ReflectionGroup(1).matrices.tobytes() == one.tobytes()
        assert ReflectionGroup(1).matrices.shape == (2, 1, 1)
        assert ReflectionGroup(2).matrices.tobytes() == two.tobytes()
        assert ReflectionGroup(2).matrices.shape == (4, 2, 2)

    def test_homogeneous_dimension(self):
        assert rank1(1.0).homogeneous_dim == pytest.approx(3.0)
        assert product_z2([0.5, 0.5]).homogeneous_dim == pytest.approx(4.0)

    @pytest.mark.parametrize("ks", [[0.1, 0.7], [0.3], [0.0, 0.25]])
    def test_derived_values_bit_equal_to_root_list(self, ks):
        n_h = product_z2(ks).homogeneous_dim
        assert np.float64(n_h).tobytes() == np.float64(_old_n_h(ks)).tobytes()

    def test_axis_multiplicities(self):
        assert np.allclose(product_z2([0.1, 0.2]).ks, [0.1, 0.2])
        assert rank1(0.4).ks.tolist() == [0.4]

    def test_multiplicities_are_read_only(self):
        ks = np.array([0.1, 0.2])
        spec = RootSystemSpec(ks=ks)
        ks[0] = 5.0
        assert spec.ks.tolist() == [0.1, 0.2]
        with pytest.raises(ValueError):
            spec.ks[0] = 1.0


class TestValidation:
    def test_negative_multiplicity_rejected(self):
        with pytest.raises(InvalidRootSystemError):
            rank1(-0.5)
        with pytest.raises(InvalidRootSystemError):
            product_z2([0.5, -0.1])

    @pytest.mark.parametrize("ks", [[0.5, 0.5, 0.5], [], [[0.5, 0.5]]])
    def test_only_one_or_two_axes(self, ks):
        with pytest.raises(InvalidRootSystemError):
            RootSystemSpec(ks=ks)


class TestOrbitDistance:
    def test_sign_orbit_distance_in_dim_two(self):
        group = ReflectionGroup(2)
        d = orbit_distance(group, np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert d == pytest.approx(SQRT2)

    def test_distance_zero_on_orbit(self):
        group = ReflectionGroup(2)
        x = np.array([0.7, -1.3])
        for mat in group.matrices:
            assert orbit_distance(group, x, mat @ x) == pytest.approx(0.0)

    def test_distance_below_euclidean(self):
        group = ReflectionGroup(2)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x, y = rng.normal(size=(2, 2))
            assert orbit_distance(group, x, y) <= np.linalg.norm(x - y) + 1e-12

    def test_pairwise_matches_scalar(self):
        group = ReflectionGroup(2)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(6, 2))
        ys = rng.normal(size=(6, 2))
        batch = orbit_distance_pairwise(group, xs, ys)
        single = [orbit_distance(group, x, y) for x, y in zip(xs, ys)]
        assert np.allclose(batch, single)

    def test_symmetry_of_orbit_distance(self):
        group = ReflectionGroup(2)
        x = np.array([1.0, 0.3])
        y = np.array([-0.4, 0.9])
        assert orbit_distance(group, x, y) == pytest.approx(
            orbit_distance(group, y, x))


def _min_over_images(group, xs, ys):
    """The minimum over all |G| images, formed for every pair at once."""
    images = np.einsum("gij,mj->mgi", group.matrices, xs)
    return np.min(np.linalg.norm(images - ys[:, None, :], axis=2), axis=1)


class TestProductOrbitDistanceClosedForm:
    @pytest.mark.parametrize("spec", [
        rank1(0.5), product_z2([0.5, 1.0]), product_z2([0.0, 0.5])])
    def test_bytes_equal_minimum_over_images(self, spec):
        group = ReflectionGroup(spec.dim)
        rng = np.random.default_rng(5)
        xs = 3.0 * rng.normal(size=(400, spec.dim))
        ys = 3.0 * rng.normal(size=(400, spec.dim))
        xs[::7] = 0.0
        ys[::5, 0] = 0.0
        ys[::11] = -0.0
        xs[::3] = -ys[::3]
        closed = orbit_distance_pairwise(group, xs, ys)
        assert closed.tobytes() == _min_over_images(group, xs, ys).tobytes()
        single = np.array([orbit_distance(group, x, y)
                           for x, y in zip(xs, ys)])
        assert closed.tobytes() == single.tobytes()


class TestGroupClosure:
    def test_group_closed_under_multiplication(self):
        def key(m):
            # +0.0 folds signed zeros onto one byte pattern
            return (np.round(m, 9) + 0.0).tobytes()

        for dim in (1, 2):
            group = ReflectionGroup(dim)
            keys = {key(m) for m in group.matrices}
            assert len(keys) == group.order
            for a in group.matrices:
                for b in group.matrices:
                    assert key(a @ b) in keys

    def test_orbit_size_divides_group_order(self):
        group = ReflectionGroup(2)
        for x in ([1.0, 0.0], [1.0, 2.0], [0.0, 0.0]):
            images = group.matrices @ np.array(x)
            orbit = {tuple(np.round(im, 9) + 0.0) for im in images}
            assert group.order % len(orbit) == 0
