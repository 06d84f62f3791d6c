"""Tests for the built-in example registry."""

import pytest

from crmostow import catalog
from crmostow.crinv import cr_type
from crmostow.exact import QI


EXPECTED_NAMES = (
    "su22_f12",
    "su23_f13",
    "su23_f12",
    "grassmann_pair",
    "so_n_symmetric",
    "upper_triangular_horocycle",
)


class TestRegistry:
    def test_entry_names_exact(self):
        assert catalog.entry_names() == EXPECTED_NAMES

    def test_entry_names_deterministic(self):
        assert catalog.entry_names() == catalog.entry_names()

    def test_unknown_entry(self):
        with pytest.raises(ValueError, match="unknown entry"):
            catalog.build("borel")

    def test_all_notes_nonempty(self):
        for name in EXPECTED_NAMES:
            params = {"p": 1, "q": 2, "n": 3, "k": 1} if name == "grassmann_pair" else None
            entry = catalog.build(name, params)
            assert entry.expected.notes
            assert entry.name == name


class TestFixedEntries:
    def test_su22_f12_values(self):
        entry = catalog.build("su22_f12")
        assert entry.ambient.blocks == (2, 2)
        assert entry.subalgebra.dim == 2
        exp = entry.expected
        assert exp.n_reductive is True
        assert exp.strict_hnr is False
        assert exp.hnr is True
        assert exp.cr_type == (1, 4)
        assert exp.witt == 0
        assert exp.f0_dim == 4

    def test_su23_f13_values(self):
        entry = catalog.build("su23_f13")
        assert entry.ambient.blocks == (2, 3)
        assert entry.subalgebra.dim == 4
        exp = entry.expected
        assert exp.n_reductive is True
        assert exp.strict_hnr is False
        assert exp.hnr is False
        assert exp.cr_type == (2, 6)
        assert exp.witt is None
        assert exp.f0_dim == 2

    def test_su23_f12_values(self):
        entry = catalog.build("su23_f12")
        assert entry.subalgebra.dim == 5
        exp = entry.expected
        assert exp.strict_hnr is False
        assert exp.hnr is True
        assert exp.cr_type == (3, 4)
        assert exp.f0_dim == 4

    def test_fixed_entries_reject_params(self):
        for name in ("su22_f12", "su23_f13", "su23_f12"):
            with pytest.raises(ValueError, match="invalid parameters"):
                catalog.build(name, {"n": 3})

    def test_builds_are_interned(self):
        a = catalog.build("su23_f13").subalgebra
        b = catalog.build("su23_f13").subalgebra
        assert a.space == b.space


class TestGrassmannPair:
    def test_reference_instance(self):
        entry = catalog.build("grassmann_pair", {"p": 1, "q": 2, "n": 3, "k": 1})
        assert entry.ambient.blocks == (4,)
        assert entry.subalgebra.dim == 8
        exp = entry.expected
        assert exp.n_reductive is True
        assert exp.strict_hnr is True
        assert exp.hnr is True
        assert exp.cr_type == (3, 4)
        assert exp.witt == 1
        assert exp.f0_dim == 4
        assert entry.params == {"p": 1, "q": 2, "n": 3, "k": 1}

    def test_empty_characteristic_instance(self):
        # k = 0 forces the second group to vanish, so cr_codim = 0 and the
        # Witt bound is undefined.
        entry = catalog.build("grassmann_pair", {"p": 1, "q": 3, "n": 3, "k": 0})
        assert entry.expected.cr_type is not None
        assert entry.expected.cr_type[1] == 0
        assert entry.expected.witt is None
        assert entry.expected.f0_dim == 0

    def test_parabolic_instance_dims(self):
        # Third group empty: the subalgebra is the full block-upper pattern.
        entry = catalog.build("grassmann_pair", {"p": 2, "q": 4, "n": 4, "k": 1})
        assert entry.subalgebra.dim == 17
        assert entry.expected.cr_type == (7, 0)

    @pytest.mark.parametrize(
        "params",
        [
            {},
            {"p": 1, "q": 2, "n": 3},
            {"p": 1, "q": 2, "n": 3, "k": 1, "extra": 0},
            {"p": 2, "q": 2, "n": 3, "k": 1},
            {"p": 0, "q": 2, "n": 3, "k": 0},
            {"p": 1, "q": 4, "n": 3, "k": 1},
            {"p": 1, "q": 2, "n": 3, "k": 2},
            {"p": 1, "q": 2, "n": 3, "k": -1},
            {"p": 2, "q": 3, "n": 3, "k": 0},
            {"p": 1, "q": 2, "n": 3, "k": True},
            {"p": "1", "q": 2, "n": 3, "k": 1},
        ],
    )
    def test_invalid_parameters(self, params):
        with pytest.raises(ValueError, match="invalid parameters"):
            catalog.build("grassmann_pair", params)

    def test_parameter_grid_size_six(self):
        grid = catalog.grassmann_parameter_grid(6)
        assert len(grid) == 44
        assert len({tuple(sorted(p.items())) for p in grid}) == 44
        for params in grid:
            p, q, n, k = params["p"], params["q"], params["n"], params["k"]
            assert 1 <= p < q <= n
            assert max(0, p + q - n - 1) <= k <= p
            assert n + 1 <= 6
        assert {"p": 1, "q": 2, "n": 3, "k": 1} in grid

    def test_parameter_grid_all_buildable(self):
        for params in catalog.grassmann_parameter_grid(5):
            entry = catalog.build("grassmann_pair", params)
            assert entry.subalgebra.dim > 0


class TestTwistedOrthogonal:
    def test_default_instance(self):
        entry = catalog.build("so_n_symmetric")
        assert entry.ambient.blocks == (3,)
        assert entry.subalgebra.dim == 3
        assert entry.expected.n_reductive is False
        assert entry.expected.cr_type is None
        assert entry.params["n"] == 3
        assert entry.params["s"] == [["1", "0"], ["1", "0"], ["0", "2"]]

    def test_computed_verdict_matches(self):
        entry = catalog.build("so_n_symmetric")
        assert entry.subalgebra.n_reductive_verdict.ok is False

    def test_size_four_default_twist(self):
        entry = catalog.build("so_n_symmetric", {"n": 4})
        assert entry.subalgebra.dim == 6
        assert entry.subalgebra.n_reductive_verdict.ok is False

    def test_custom_twist(self):
        entry = catalog.build(
            "so_n_symmetric",
            {"n": 3, "s": [["1", "0"], ["1/2", "0"], ["0", "3"]]},
        )
        assert entry.subalgebra.dim == 3

    @pytest.mark.parametrize(
        "params",
        [
            {"n": 1},
            {"n": 3, "s": [["1", "0"], ["1", "0"]]},
            {"n": 3, "s": [["1", "0"], ["1", "0"], ["0", "0"]]},
            {"n": 3, "s": [["1", "0"], ["1", "0"], ["1", "0"]]},
            {"n": 3, "s": [["1", "0"], ["0", "1"], ["-1", "0"]]},
            {"n": 3, "s": [["1", "0"], ["1", "0"], "2i"]},
            {"n": 3, "s": [["1", "0"], ["1", "0"], ["x", "0"]]},
        ],
    )
    def test_invalid_parameters(self, params):
        with pytest.raises(ValueError, match="invalid parameters"):
            catalog.build("so_n_symmetric", params)


class TestUpperTriangularHorocycle:
    def test_default_instance(self):
        entry = catalog.build("upper_triangular_horocycle")
        assert entry.ambient.blocks == (3,)
        assert entry.subalgebra.dim == 3
        exp = entry.expected
        assert exp.n_reductive is True
        assert exp.strict_hnr is True
        assert exp.hnr is True
        assert exp.cr_type == (3, 2)
        assert exp.witt == 0
        assert exp.f0_dim == 2

    def test_size_four(self):
        entry = catalog.build("upper_triangular_horocycle", {"n": 4})
        assert entry.subalgebra.dim == 6
        assert entry.expected.cr_type == (6, 3)
        assert entry.expected.f0_dim == 3

    def test_nilpotent_basis(self):
        entry = catalog.build("upper_triangular_horocycle")
        for mat in entry.subalgebra.basis():
            assert mat.is_nilpotent()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            catalog.build("upper_triangular_horocycle", {"n": 1})
        with pytest.raises(ValueError, match="invalid parameters"):
            catalog.build("upper_triangular_horocycle", {"n": 3, "s": []})


class TestPipelineAgreement:
    """Computed invariants agree with the expected record (spot checks; the
    exhaustive sweep lives in the acceptance suite)."""

    @pytest.mark.parametrize(
        "name,params",
        [
            ("su22_f12", None),
            ("su23_f12", None),
            ("upper_triangular_horocycle", None),
            ("grassmann_pair", {"p": 1, "q": 2, "n": 3, "k": 1}),
        ],
    )
    def test_cr_type_matches(self, name, params):
        entry = catalog.build(name, params)
        assert entry.expected.n_reductive is True
        ct = cr_type(entry.subalgebra)
        assert (ct.cr_dim, ct.cr_codim) == entry.expected.cr_type

    def test_n_reductive_flags(self):
        for name in EXPECTED_NAMES:
            params = {"p": 1, "q": 2, "n": 3, "k": 1} if name == "grassmann_pair" else None
            entry = catalog.build(name, params)
            assert entry.subalgebra.n_reductive_verdict.ok is entry.expected.n_reductive
