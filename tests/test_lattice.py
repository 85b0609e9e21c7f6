import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fluxlattice import (
    PI,
    Bond,
    BondSign,
    ConfigError,
    HermitianOperator,
    LatticeConfig,
    Rail,
    RhombicLattice,
    SiteId,
    apply_site_gauge,
    build_lattice,
    hamiltonian_single_excitation,
    lattice_from_dict,
    lattice_to_dict,
    load_lattice,
    parse_flux,
    plaquette_flux,
    plaquette_fluxes,
    save_lattice,
    site_index,
    site_labels,
)
from fluxlattice.dynamics import StateVector, evolve_unitary
from fluxlattice.lattice import csv_text, json_text

SQRT2 = math.sqrt(2.0)


class TestSiteId:
    def test_parse_aliases(self):
        assert SiteId.parse("A,2") == SiteId(Rail.A, 2)
        assert SiteId.parse("up,1") == SiteId(Rail.UP, 1)
        assert SiteId.parse("dn,3") == SiteId.parse("down,3")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            SiteId.parse("left,1")
        with pytest.raises(ConfigError):
            SiteId.parse("A")
        with pytest.raises(ConfigError):
            SiteId(Rail.A, 0)

    def test_flat_index_order(self):
        labels = site_labels(2)
        assert labels == ("A,1", "up,1", "dn,1", "A,2", "up,2", "dn,2", "A,3")
        assert site_index(SiteId(Rail.A, 3), 2) == 6
        with pytest.raises(ConfigError):
            site_index(SiteId(Rail.UP, 3), 2)


class TestBuildLattice:
    def test_l2_pi_configuration(self):
        lat = build_lattice(2, [PI, PI])
        assert lat.num_sites == 7
        assert plaquette_fluxes(lat) == (PI, PI)

    def test_zero_flux_all_negative_couplings(self):
        lat = build_lattice(1, [0])
        assert len(lat.bonds) == 4
        assert all(b.sign is BondSign.MINUS for b in lat.bonds)

    def test_mixed_fluxes(self):
        lat = build_lattice(2, [0, PI])
        assert plaquette_flux(lat, 1) == 0.0
        assert plaquette_flux(lat, 2) == PI

    def test_pi_gauge_flips_second_down_bond(self):
        lat = build_lattice(1, [PI])
        plus = [b for b in lat.bonds if b.sign is BondSign.PLUS]
        assert len(plus) == 1
        assert plus[0].a_site == SiteId(Rail.A, 2)
        assert plus[0].arm_site == SiteId(Rail.DOWN, 1)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            build_lattice(2, [PI])

    def test_invalid_flux_value(self):
        with pytest.raises(ConfigError):
            build_lattice(1, [PI / 2])

    @pytest.mark.parametrize(
        "value, expected",
        [
            (0, 0.0),
            ("0", 0.0),
            ("0.0", 0.0),
            (-1e-13, 0.0),
            ("pi", PI),
            (" P i ", PI),
            ("3.14159265358979", PI),
            (PI + 1e-13, PI),
        ],
    )
    def test_flux_inputs(self, value, expected):
        assert parse_flux(value) == expected
        assert plaquette_flux(build_lattice(1, [value]), 1) == expected

    @pytest.mark.parametrize("value", [None, "nan", "2pi", "pi/2", 1e-11, PI + 1e-11])
    def test_flux_rejects(self, value):
        with pytest.raises(ConfigError):
            parse_flux(value)

    def test_bond_structure_validated(self):
        bonds = build_lattice(1, [0]).bonds[:3]
        with pytest.raises(ConfigError):
            RhombicLattice(1, bonds)
        with pytest.raises(ConfigError):
            Bond(SiteId(Rail.UP, 1), SiteId(Rail.DOWN, 1))
        with pytest.raises(ConfigError):
            Bond(SiteId(Rail.A, 1), SiteId(Rail.UP, 2))


class TestPlaquetteFlux:
    def test_all_minus_is_zero(self):
        assert plaquette_flux(build_lattice(1, [0]), 1) == 0.0

    def test_single_plus_is_pi(self):
        assert plaquette_flux(build_lattice(1, [PI]), 1) == PI

    def test_two_plus_two_minus_is_zero(self):
        base = build_lattice(1, [0])
        flipped = apply_site_gauge(base, {"up,1": -1})
        signs = sorted(b.sign.name for b in flipped.bonds)
        assert signs == ["MINUS", "MINUS", "PLUS", "PLUS"]
        assert plaquette_flux(flipped, 1) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            plaquette_flux(build_lattice(1, [0]), 2)


class TestHamiltonian:
    @pytest.mark.parametrize("J", [1.0, 2.5])
    def test_pi_flux_eigenvalues(self, J):
        h = hamiltonian_single_excitation(build_lattice(1, [PI], J=J))
        expected = J * np.array([-SQRT2, -SQRT2, SQRT2, SQRT2])
        assert np.allclose(np.linalg.eigvalsh(h.matrix), expected, atol=1e-12)

    def test_zero_flux_eigenvalues(self):
        h = hamiltonian_single_excitation(build_lattice(1, [0]))
        assert np.allclose(np.linalg.eigvalsh(h.matrix), [-2, 0, 0, 2], atol=1e-12)

    def test_zero_coupling_zero_matrix(self):
        h = hamiltonian_single_excitation(build_lattice(1, [0], J=0.0))
        assert np.abs(h.matrix).max() == 0.0

    def test_detunings_on_diagonal(self):
        lat = build_lattice(1, [0], {"up,1": 0.7, "A,2": -0.2})
        h = hamiltonian_single_excitation(lat).matrix
        assert h[1, 1] == 0.7 and h[3, 3] == -0.2

    def test_hermiticity(self):
        lat = build_lattice(3, [0, PI, PI], {"A,2": 0.3}, J=1.7)
        m = hamiltonian_single_excitation(lat).matrix
        assert np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max()

    def test_non_hermitian_rejected(self):
        with pytest.raises(ConfigError):
            HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @given(st.lists(st.sampled_from([0.0, PI]), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_spectrum_symmetric_at_zero_detuning(self, fluxes):
        h = hamiltonian_single_excitation(build_lattice(len(fluxes), fluxes))
        energies = np.linalg.eigvalsh(h.matrix)
        assert np.allclose(energies, -energies[::-1], atol=1e-10)

    @pytest.mark.parametrize("l", [2, 4])
    def test_pi_flux_block_spectrum(self, l):
        h = hamiltonian_single_excitation(build_lattice(l, [PI] * l))
        energies = np.sort(np.linalg.eigvalsh(h.matrix))
        expected = np.sort(
            np.concatenate([[-SQRT2, SQRT2] * 2, [-2.0, 0.0, 2.0] * (l - 1)])
        )
        assert np.allclose(energies, expected, atol=1e-10)


class TestGaugeInvariance:
    @given(
        st.lists(st.sampled_from([0.0, PI]), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_spectrum_and_dynamics_gauge_invariant(self, fluxes, data):
        l = len(fluxes)
        base = build_lattice(l, fluxes)
        signs = {
            s: data.draw(st.sampled_from([-1, 1]), label=s.label) for s in base.sites
        }
        other = apply_site_gauge(base, signs)
        assert plaquette_fluxes(other) == plaquette_fluxes(base)
        ha = hamiltonian_single_excitation(base)
        hb = hamiltonian_single_excitation(other)
        assert np.allclose(
            np.linalg.eigvalsh(ha.matrix), np.linalg.eigvalsh(hb.matrix), atol=1e-10
        )
        init = data.draw(st.sampled_from(base.sites), label="init")
        times = np.linspace(0, 2 * PI, 40)
        psi = StateVector.from_site(base, init)
        ta = evolve_unitary(ha, psi, times)
        tb = evolve_unitary(hb, psi, times)
        assert np.abs(ta.populations - tb.populations).max() < 1e-10


class TestLatticeFiles:
    def test_roundtrip_preserves_hamiltonian(self):
        lat = build_lattice(2, [0, PI], {"up,1": 0.5, "dn,1": -0.5}, J=1.0)
        config = LatticeConfig(lat, J_MHz=4.2)
        restored = lattice_from_dict(lattice_to_dict(config))
        assert restored.J_MHz == 4.2
        ha = hamiltonian_single_excitation(lat).matrix
        hb = hamiltonian_single_excitation(restored.lattice).matrix
        assert np.allclose(ha, hb, atol=1e-12)

    def test_gauge_override_applied(self):
        doc = {
            "schema": 1,
            "l": 1,
            "fluxes": [0],
            "gauge": [["A,1", "up,1", "plus"], ["A,1", "dn,1", "plus"]],
        }
        lat = lattice_from_dict(doc).lattice
        assert plaquette_flux(lat, 1) == 0.0
        plus = sorted(b.arm_site.label for b in lat.bonds if b.sign is BondSign.PLUS)
        assert plus == ["dn,1", "up,1"]

    @pytest.mark.parametrize(
        "gauge, match",
        [
            ([["A,2", "up,3", "minus"]], "not a bond"),
            ([["A,1", "up,1", "plus"]], "declares"),
            ([["A,1", "up,1"]], "gauge entry"),
        ],
        ids=["nonexistent-bond", "flux-mismatch", "short-entry"],
    )
    def test_gauge_override_rejected(self, gauge, match):
        doc = {"schema": 1, "l": 1, "fluxes": ["pi"], "gauge": gauge}
        with pytest.raises(ConfigError, match=match):
            lattice_from_dict(doc)

    @given(
        st.lists(st.sampled_from([0.0, PI]), min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_save_load_roundtrip_under_site_gauge(self, fluxes, data):
        base = build_lattice(len(fluxes), fluxes)
        signs = {s: data.draw(st.sampled_from([-1, 1]), label=s.label) for s in base.sites}
        gauged = apply_site_gauge(base, signs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lattice.json"
            save_lattice(LatticeConfig(gauged, J_MHz=4.2), path)
            restored = load_lattice(path)
        assert plaquette_fluxes(restored.lattice) == plaquette_fluxes(gauged)
        assert {(b.a_site, b.arm_site, b.sign) for b in restored.lattice.bonds} == {
            (b.a_site, b.arm_site, b.sign) for b in gauged.bonds
        }
        assert np.array_equal(
            hamiltonian_single_excitation(restored.lattice).matrix,
            hamiltonian_single_excitation(gauged).matrix,
        )

    def test_dephasing_us_needs_j(self):
        with pytest.raises(ConfigError):
            lattice_from_dict({"schema": 1, "l": 1, "fluxes": [0], "dephasing_us": 1.0})

    def test_dephasing_conversion(self):
        doc = {"schema": 1, "l": 1, "fluxes": ["pi"], "J_MHz": 4.2, "dephasing_us": 1.0}
        config = lattice_from_dict(doc)
        gamma = next(iter(config.dephasing_over_J.values()))
        assert gamma == pytest.approx(1.0 / (2 * PI * 4.2))

    def test_unknown_flux_token(self):
        with pytest.raises(ConfigError):
            lattice_from_dict({"schema": 1, "l": 1, "fluxes": ["tau"]})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("J_MHz", "abc"),
            ("J_MHz", True),
            ("detunings", {"A,1": "x"}),
            ("detunings", ["A,1"]),
            ("dephasing_over_J", {"A,1": "x"}),
            ("gauge", 5),
            # A count takes no fraction or bool, as adiabatic --config's l does.
            ("l", 1.5),
            ("l", True),
            # A number field takes no bool or numeric string.
            ("fluxes", [False]),
            ("detunings", {"A,1": "0.5"}),
        ],
        ids=[
            "j-string", "j-bool", "detuning-string", "detunings-list", "dephasing-string", "gauge-number",
            "l-fraction", "l-bool", "flux-bool", "detuning-numeric-string",
        ],
    )
    def test_field_types_rejected(self, field, value):
        doc = {"schema": 1, "l": 1, "fluxes": ["pi"], field: value}
        with pytest.raises(ConfigError, match=field):
            lattice_from_dict(doc)

    def test_integral_float_l_loads(self):
        assert lattice_from_dict({"schema": 1, "l": 2.0, "fluxes": ["pi", 0]}).lattice.l == 2

    def test_integer_j_mhz_keeps_config_hash(self):
        # J_MHz is checked, not converted: 4 stays 4 and hashes as it always did.
        doc = {"schema": 1, "l": 1, "fluxes": ["pi"], "J_MHz": 4, "detunings": {"A,1": 2}}
        config = lattice_from_dict(doc)
        assert type(config.J_MHz) is int
        assert config.config_hash() == "53ef3c129f1eb99f66c89f302224fb6262cc79317d5f5c3f2c1d6648be21d6ba"


def _outcome(write, doc):
    """The text ``write(doc)`` returns, or the type of the exception it raises."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308, math.inf, -math.inf, math.nan])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = (
    st.none() | st.booleans() | st.integers() | _FLOATS | _FLOATS.map(np.float64)
    | st.text() | st.sampled_from(["\x00\x1f\x7f", "caf\u00e9 \u03c0 \U0001f600", "\ud800", '"\\/\b\f\n\r\t'])
    # json.dumps refuses these, so the writer must raise TypeError too.
    | st.sampled_from([np.int64(3), np.bool_(True), 1 + 2j, {1}])
)
_KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()


def _float_rows(width):
    return st.lists(st.lists(_FINITE, min_size=width, max_size=width), min_size=1, max_size=6)


_DOCS = st.recursive(
    _LEAVES | st.lists(_FINITE, max_size=8) | st.lists(_FLOATS, max_size=8)
    | st.integers(0, 4).flatmap(_float_rows) | st.lists(st.lists(_FINITE, max_size=4), max_size=5),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        # One key type per dict sorts; a mix of str and numbers makes both writers raise.
        | st.dictionaries(st.text(), children, max_size=4)
        | st.dictionaries(st.integers() | st.booleans() | st.floats(), children, max_size=4)
        | st.dictionaries(_KEYS, children, max_size=3)
    ),
    max_leaves=20,
)


class TestOutputText:
    @given(_DOCS)
    @settings(max_examples=300, deadline=None)
    def test_json_text_matches_the_stdlib(self, doc):
        expected = _outcome(lambda d: json.dumps(d, indent=2, sort_keys=True) + "\n", doc)
        assert _outcome(lambda d: json_text(d) + "\n", doc) == expected

    @pytest.mark.parametrize(
        "doc",
        [
            {}, [], (), "x", 1.5, None, [[]], [[], [1.0]],
            {"a": [float("nan"), 1.0]}, {2: 1, 10: 2}, {1.5: "a", math.inf: "b"},
        ],
    )
    def test_json_text_edge_documents(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [np.int64(1), [np.int64(1)], {"a": object()}, {(1, 2): 0}, {"a": 1, 2: 0}])
    def test_json_text_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            json_text(doc)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
            elements=st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324]),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_csv_text_matches_per_cell_formatting(self, rows):
        header = [f"c{i}" for i in range(np.atleast_2d(rows).shape[1])]
        lines = [",".join(header)]
        for row in np.atleast_2d(rows):
            lines.append(",".join(f"{v:.12e}" for v in row))
        assert csv_text(header, rows) == "\n".join(lines) + "\n"
