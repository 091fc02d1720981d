"""Reflection groups, root systems, and the orbit distance."""

import numpy as np
import pytest

from dunkllab import (GroupExplosionError, InvalidRootSystemError,
                      ReflectionGroup, RootSystemSpec, dihedral,
                      generate_group, orbit_distance,
                      orbit_distance_pairwise, product_z2, rank1, reflect,
                      reflection_matrix)
from dunkllab.root_systems import validate

SQRT2 = np.sqrt(2.0)


class TestReflection:
    def test_reflection_fixes_hyperplane(self):
        alpha = np.array([SQRT2, 0.0])
        y = np.array([0.0, 3.7])
        assert np.allclose(reflect(y, alpha), y)

    def test_reflection_negates_root(self):
        alpha = np.array([1.0, 1.0])
        assert np.allclose(reflect(alpha, alpha), -alpha)

    def test_reflection_is_involution(self):
        rng = np.random.default_rng(7)
        alpha = np.array([1.0, -2.0])
        pts = rng.normal(size=(5, 2))
        assert np.allclose(reflect(reflect(pts, alpha), alpha), pts)

    def test_reflection_matrix_matches_pointwise(self):
        alpha = np.array([1.0, 2.0])
        mat = reflection_matrix(alpha)
        x = np.array([0.3, -1.1])
        assert np.allclose(mat @ x, reflect(x, alpha))
        assert np.allclose(mat @ mat, np.eye(2))


class TestConstructors:
    def test_rank1_roots_have_squared_norm_two(self):
        spec = rank1(0.7)
        assert np.allclose(np.sum(spec.roots**2, axis=1), 2.0)

    def test_rank1_group_is_sign_flip(self):
        group = generate_group(rank1(1.0))
        assert group.order == 2
        mats = sorted(m[0, 0] for m in group.matrices)
        assert mats == [-1.0, 1.0]

    def test_product_group_order(self):
        group = generate_group(product_z2([0.5, 0.5]))
        assert group.order == 4

    def test_dihedral_group_order(self):
        for m, order in ((3, 6), (4, 8), (6, 12)):
            assert generate_group(dihedral(m, 1.0)).order == 2 * m

    def test_homogeneous_dimension(self):
        assert rank1(1.0).homogeneous_dim == pytest.approx(3.0)
        assert product_z2([0.5, 0.5]).homogeneous_dim == pytest.approx(4.0)
        # the multiplicity sum runs over all 2m dihedral roots
        assert dihedral(3, 1.0).homogeneous_dim == pytest.approx(2 + 6.0)

    def test_product_detection(self):
        assert rank1(0.3).is_product()
        assert product_z2([0.1, 0.2]).is_product()
        assert not dihedral(3, 0.5).is_product()

    def test_axis_multiplicities(self):
        assert np.allclose(product_z2([0.1, 0.2]).axis_multiplicities(),
                           [0.1, 0.2])


class TestValidation:
    def test_negative_multiplicity_rejected(self):
        with pytest.raises(InvalidRootSystemError):
            rank1(-0.5)

    def test_non_invariant_multiplicity_rejected(self):
        roots = np.array([[SQRT2, 0.0], [-SQRT2, 0.0]])
        spec = RootSystemSpec(roots=roots, multiplicity=np.array([0.5, 0.7]))
        assert any("invariant" in p or "multiplicit" in p
                   for p in validate(spec))

    def test_unnormalized_roots_reported(self):
        roots = np.array([[1.0, 0.0], [-1.0, 0.0]])
        spec = RootSystemSpec(roots=roots, multiplicity=np.array([0.5, 0.5]))
        assert validate(spec)

    def test_group_explosion_guard(self):
        roots = np.array([[SQRT2, 0.0], [-SQRT2, 0.0]])
        spec = RootSystemSpec(roots=roots, multiplicity=np.array([0.0, 0.0]))
        with pytest.raises(GroupExplosionError):
            generate_group(spec, max_order=1)


class TestOrbitDistance:
    def test_sign_orbit_distance_in_dim_two(self):
        group = generate_group(product_z2([0.5, 0.5]))
        d = orbit_distance(group, np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert d == pytest.approx(SQRT2)

    def test_distance_zero_on_orbit(self):
        group = generate_group(product_z2([1.0, 1.0]))
        x = np.array([0.7, -1.3])
        for mat in group.matrices:
            assert orbit_distance(group, x, mat @ x) == pytest.approx(0.0)

    def test_distance_below_euclidean(self):
        group = generate_group(dihedral(3, 1.0))
        rng = np.random.default_rng(11)
        for _ in range(10):
            x, y = rng.normal(size=(2, 2))
            assert orbit_distance(group, x, y) <= np.linalg.norm(x - y) + 1e-12

    def test_pairwise_matches_scalar(self):
        group = generate_group(dihedral(4, 0.5))
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(6, 2))
        ys = rng.normal(size=(6, 2))
        batch = orbit_distance_pairwise(group, xs, ys)
        single = [orbit_distance(group, x, y) for x, y in zip(xs, ys)]
        assert np.allclose(batch, single)

    def test_symmetry_of_orbit_distance(self):
        group = generate_group(dihedral(3, 1.0))
        x = np.array([1.0, 0.3])
        y = np.array([-0.4, 0.9])
        assert orbit_distance(group, x, y) == pytest.approx(
            orbit_distance(group, y, x))


def _min_over_images(group, xs, ys):
    """The minimum over all |G| images, as for a generic group."""
    images = np.einsum("gij,mj->mgi", group.matrices, xs)
    return np.min(np.linalg.norm(images - ys[:, None, :], axis=2), axis=1)


class TestProductOrbitDistanceClosedForm:
    ONE_AXIS = RootSystemSpec(roots=[[SQRT2, 0.0], [-SQRT2, 0.0]],
                              multiplicity=[0.5, 0.5])

    @pytest.mark.parametrize("spec, flips", [
        (rank1(0.5), [True]),
        (product_z2([0.5, 1.0]), [True, True]),
        (ONE_AXIS, [True, False]),
    ])
    def test_bytes_equal_minimum_over_images(self, spec, flips):
        group = generate_group(spec)
        assert group.flipped_axes.tolist() == flips
        rng = np.random.default_rng(5)
        xs = 3.0 * rng.normal(size=(400, spec.dim))
        ys = 3.0 * rng.normal(size=(400, spec.dim))
        xs[::7] = 0.0
        ys[::5, 0] = 0.0
        ys[::11] = -0.0
        xs[::3] = -ys[::3]
        closed = orbit_distance_pairwise(group, xs, ys)
        assert closed.tobytes() == _min_over_images(group, xs, ys).tobytes()

    def test_one_axis_system_keeps_the_other_difference(self):
        group = generate_group(self.ONE_AXIS)
        d = orbit_distance_pairwise(group, [[1.0, 2.0]], [[-1.0, -2.0]])
        assert d.tolist() == [4.0]

    @pytest.mark.parametrize("spec", [dihedral(3, 0.5), dihedral(4, 0.5)])
    def test_non_diagonal_group_matches_scalar(self, spec):
        group = generate_group(spec)
        assert group.flipped_axes is None
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(50, 2))
        ys = rng.normal(size=(50, 2))
        xs[:5] = 0.0
        batch = orbit_distance_pairwise(group, xs, ys)
        single = [orbit_distance(group, x, y) for x, y in zip(xs, ys)]
        assert np.allclose(batch, single, rtol=1e-14, atol=0.0)

    def test_diagonal_subgroup_is_not_a_product(self):
        # {I, -I} is diagonal but misses the single-axis flips
        group = ReflectionGroup(matrices=np.array([np.eye(2), -np.eye(2)]))
        assert group.flipped_axes is None
        d = orbit_distance_pairwise(group, [[1.0, 2.0]], [[-1.0, 2.0]])
        assert d.tolist() == [2.0]


class TestGroupClosure:
    def test_group_closed_under_multiplication(self):
        group = generate_group(dihedral(3, 1.0))

        def key(m):
            # +0.0 folds signed zeros onto one byte pattern
            return (np.round(m, 9) + 0.0).tobytes()

        keys = {key(m) for m in group.matrices}
        for a in group.matrices:
            for b in group.matrices:
                assert key(a @ b) in keys

    def test_orbit_size_divides_group_order(self):
        group = generate_group(dihedral(3, 1.0))
        orbit = group.orbit(np.array([1.0, 0.0]))
        assert group.order % len(orbit) == 0
