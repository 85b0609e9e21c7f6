import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxlattice import (
    PI,
    ConfigError,
    DensityMatrix,
    DephasingRates,
    NumericalError,
    StateVector,
    build_lattice,
    evolve_unitary,
    fidelity,
    hamiltonian_single_excitation,
    lindblad_evolve,
    with_vacuum,
)
from fluxlattice import open_system

TIMES = np.linspace(0.0, 4 * PI, 65)


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DensityMatrix(np.diag([0.6, 0.6]))  # trace 1.2
        with pytest.raises(ConfigError):
            DensityMatrix(np.array([[0.5, 0.9], [0.9, 0.5]]))  # negative eigenvalue
        with pytest.raises(ConfigError):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian

    def test_single_excitation_builder(self):
        lat = build_lattice(1, [0])
        rho = DensityMatrix.single_excitation(lat, "A,2")
        assert rho.dim == 5
        assert rho.matrix[4, 4] == 1.0
        assert rho.site_populations()[3] == 1.0


class TestDephasingRates:
    def test_nonnegative(self):
        with pytest.raises(ConfigError):
            DephasingRates(np.array([0.1, -0.2]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_finite(self, bad):
        with pytest.raises(ConfigError):
            DephasingRates(np.array([0.1, bad]))

    def test_from_map(self):
        lat = build_lattice(1, [0])
        rates = DephasingRates.from_map(lat, {"up,1": 0.3}, default=0.1)
        assert rates.values.tolist() == [0.1, 0.3, 0.1, 0.1]


class TestLindbladEvolution:
    def test_zero_rates_match_unitary(self):
        lat = build_lattice(2, [PI, PI])
        h = hamiltonian_single_excitation(lat)
        result = lindblad_evolve(
            with_vacuum(h),
            DephasingRates.uniform(7, 0.0),
            DensityMatrix.single_excitation(lat, "A,2"),
            TIMES,
        )
        exact = evolve_unitary(h, StateVector.from_site(lat, "A,2"), TIMES)
        assert np.abs(result.trace.populations - exact.populations).max() < 1e-7

    def test_pure_dephasing_analytic_decay(self):
        gamma = 0.8
        rho0 = DensityMatrix.from_pure(np.array([1.0, 1.0]) / math.sqrt(2))
        times = np.linspace(0.0, 5.0, 21)
        result = lindblad_evolve(np.zeros((2, 2)), [gamma], rho0, times, keep_states=True)
        for t, dm in zip(times, result.states):
            assert abs(dm.matrix[0, 1] - 0.5 * math.exp(-gamma * t / 2)) < 1e-8
            assert abs(dm.matrix[0, 0] - 0.5) < 1e-10
        assert np.all(np.diff(result.coherence_norms) <= 1e-12)

    def test_trace_and_positivity(self):
        lat = build_lattice(2, [PI, PI])
        result = lindblad_evolve(
            with_vacuum(hamiltonian_single_excitation(lat)),
            DephasingRates.uniform(7, 0.01),
            DensityMatrix.single_excitation(lat, "A,2"),
            TIMES,
            keep_states=True,
        )
        for dm in result.states:
            assert abs(dm.matrix.trace().real - 1.0) < 1e-6
            assert np.linalg.eigvalsh(dm.matrix).min() > -1e-6

    def test_populations_frozen_when_hamiltonian_vanishes(self):
        rng = np.random.default_rng(11)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho0 = DensityMatrix.from_pure(vec / np.linalg.norm(vec))
        result = lindblad_evolve(
            np.zeros((4, 4)), [0.2, 0.5, 0.05], rho0, np.linspace(0, 3, 13), keep_states=True
        )
        pops = result.trace.populations
        assert np.abs(pops - pops[0]).max() < 1e-9
        mags = np.array([np.abs(dm.matrix) for dm in result.states])
        assert np.all(np.diff(mags, axis=0) <= 1e-12)

    def test_rk4_fourth_order(self):
        lat = build_lattice(1, [0])
        h = with_vacuum(hamiltonian_single_excitation(lat))
        rho0 = DensityMatrix.single_excitation(lat, "A,1")
        rates = DephasingRates.uniform(4, 0.1)

        def final_state(step):
            run = lindblad_evolve(h, rates, rho0, [2.0], max_step=step, keep_states=True)
            return run.states[-1].matrix

        reference = final_state(0.025)
        err_h = np.abs(final_state(0.2) - reference).max()
        err_h2 = np.abs(final_state(0.1) - reference).max()
        assert 14.0 < err_h / err_h2 < 18.0

    def test_trace_drift_raises(self):
        lat = build_lattice(1, [0], J=3.0)
        h = with_vacuum(hamiltonian_single_excitation(lat))
        rho0 = DensityMatrix.single_excitation(lat, "A,1")
        with pytest.raises(NumericalError, match="trace drifted"):
            lindblad_evolve(h, DephasingRates.uniform(4, 0.1), rho0, [50.0], max_step=1.1)
        # A step this large overflows to NaN, which must not pass the drift check.
        lat_pi = build_lattice(1, [PI])
        with pytest.raises(NumericalError, match="trace drifted"):
            lindblad_evolve(
                with_vacuum(hamiltonian_single_excitation(lat_pi)),
                DephasingRates.uniform(4, 0.1),
                DensityMatrix.single_excitation(lat_pi, "A,1"),
                np.linspace(0, 2000, 5),
                max_step=2.0,
            )

    def test_dimension_checks(self):
        lat = build_lattice(1, [0])
        rho0 = DensityMatrix.single_excitation(lat, "A,1")
        with pytest.raises(ConfigError):
            lindblad_evolve(np.zeros((4, 4)), [0.1] * 3, rho0, [1.0])
        with pytest.raises(ConfigError):
            lindblad_evolve(np.zeros((5, 5)), [0.1] * 3, rho0, [1.0])

    def test_coherence_column_in_csv(self, tmp_path):
        lat = build_lattice(1, [PI])
        run = lindblad_evolve(
            with_vacuum(hamiltonian_single_excitation(lat)),
            DephasingRates.uniform(4, 0.05),
            DensityMatrix.single_excitation(lat, "A,1"),
            np.linspace(0, 2, 9),
            site_labels=("A,1", "up,1", "dn,1", "A,2"),
        )
        path = tmp_path / "open.csv"
        run.trace.write_csv(path, {"coherence_norm": run.coherence_norms})
        header = path.read_text().splitlines()[0]
        assert header == "Jt,n_A1,n_up1,n_dn1,n_A2,coherence_norm"

    def test_extra_collapse_hook(self):
        # Relaxation |1><0| ... |0><1| empties the excited state.
        decay = np.zeros((2, 2))
        decay[0, 1] = math.sqrt(0.5)
        rho0 = DensityMatrix.from_pure([0.0, 1.0])
        run = lindblad_evolve(np.zeros((2, 2)), [0.0], rho0, [0.0, 4.0], extra_collapse=[decay])
        assert run.trace.populations[-1, 0] == pytest.approx(math.exp(-0.5 * 4.0), abs=1e-6)

    @pytest.mark.parametrize(
        "rates, extra",
        [([0.0] * 4, [np.full((5, 5), np.nan)]), ([0.1, np.nan, 0.1, 0.1], []), ([0.1, -0.1, 0.1, 0.1], [])],
        ids=["extra-collapse-nan", "rate-nan", "rate-negative"],
    )
    def test_invalid_collapse_rejected(self, rates, extra):
        lat = build_lattice(1, [PI])
        with pytest.raises(ConfigError):
            lindblad_evolve(
                with_vacuum(hamiltonian_single_excitation(lat)),
                rates,
                DensityMatrix.single_excitation(lat, "A,1"),
                [0.0, 1.0],
                extra_collapse=extra,
            )


class TestDissipator:
    @given(
        st.integers(2, 6),
        st.integers(0, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_folded_rhs_matches_explicit_sum(self, dim, n_diagonal, with_general, seed):
        rng = np.random.default_rng(seed)

        def complex_matrix():
            return rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))

        ops = [np.diag(rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)) for _ in range(n_diagonal)]
        if with_general:
            ops.insert(rng.integers(len(ops) + 1), complex_matrix())
        h = complex_matrix()
        h = h + h.conj().T
        rho = complex_matrix()
        rho = rho + rho.conj().T
        expected = -1j * (h @ rho - rho @ h)
        for op in ops:
            opd_op = op.conj().T @ op
            expected += op @ rho @ op.conj().T - 0.5 * (opd_op @ rho + rho @ opd_op)
        got = open_system._lindblad_rhs(h, rho, open_system._collapse_terms(ops))
        assert np.abs(got - expected).max() < 1e-13


def _random_matrix(rng, dim):
    return rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))


def _relaxation_operators(dim, rate):
    """``sqrt(rate) |vac><1_j|`` for every excitation site: non-diagonal collapse operators."""
    ops = []
    for j in range(1, dim):
        op = np.zeros((dim, dim), dtype=complex)
        op[0, j] = math.sqrt(rate)
        ops.append(op)
    return ops


def _rk4_reference(h, ops, rho0, times, step):
    """Density matrices at ``times`` from an ``_rk4_step`` loop on the ``_substeps`` grid."""
    collapse = open_system._collapse_terms(ops)
    rho, now, states = np.array(rho0, dtype=complex), 0.0, []
    for target in times:
        span = target - now
        if span > 0:
            n_sub = max(1, math.ceil(span / step))
            for _ in range(n_sub):
                rho = open_system._rk4_step(h, rho, span / n_sub, collapse)
            now = target
        states.append(0.5 * (rho + rho.conj().T))
    return np.array(states)


class TestStepMap:
    @given(
        st.integers(2, 6),
        st.integers(0, 3),
        st.integers(0, 3),
        st.floats(1e-3, 0.05),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_map_is_the_rk4_step(self, dim, n_diagonal, n_general, dt, seed):
        rng = np.random.default_rng(seed)
        ops = [np.diag(rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)) for _ in range(n_diagonal)]
        ops += [_random_matrix(rng, dim) for _ in range(n_general)]
        h = _random_matrix(rng, dim)
        h = h + h.conj().T
        rho = _random_matrix(rng, dim)
        rho = rho + rho.conj().T
        collapse = open_system._collapse_terms(ops)
        step_map = open_system._rk4_map(open_system._liouvillian(h, collapse), dt)
        expected = open_system._rk4_step(h, rho, dt, collapse)
        assert np.abs((step_map @ rho.reshape(-1)).reshape(dim, dim) - expected).max() < 1e-13

    @pytest.mark.parametrize(
        "l, relaxation, t_max, uses_map",
        [(2, 0.004, 2.0, True), (1, 0.0, 2.0, True), (4, 0.0, 0.25 * PI, False), (6, 0.0, 2.0, False)],
    )
    def test_evolution_matches_rk4_loop(self, monkeypatch, l, relaxation, t_max, uses_map):
        picks = self._picks(monkeypatch)
        lat = build_lattice(l, [PI] * l)
        h = with_vacuum(hamiltonian_single_excitation(lat))
        rates = DephasingRates.uniform(lat.num_sites, 0.01)
        ops = _relaxation_operators(lat.num_sites + 1, relaxation) if relaxation else []
        rho0 = DensityMatrix.single_excitation(lat, "A,1")
        times = np.linspace(0.0, t_max, 21)
        step = 0.004
        run = lindblad_evolve(h, rates, rho0, times, extra_collapse=ops, max_step=step, keep_states=True)
        assert picks == [uses_map]
        reference = _rk4_reference(
            h.matrix, open_system.dephasing_operators(rates, lat.num_sites + 1) + ops, rho0.matrix, times, step
        )
        states = np.array([dm.matrix for dm in run.states])
        assert np.abs(states - reference).max() < 1e-12

    @staticmethod
    def _picks(monkeypatch):
        """Record the cost rule's picks in ``lindblad_evolve``."""
        picks = []
        rule = open_system._batch_pays

        def spy(*args):
            picks.append(rule(*args))
            return picks[-1]

        monkeypatch.setattr(open_system, "_batch_pays", spy)
        return picks

    def test_rule(self, monkeypatch):
        class Picked(Exception):
            pass

        def walk(*args):
            raise Picked

        picks = self._picks(monkeypatch)
        monkeypatch.setattr(open_system, "_substeps", walk)
        cases = [
            # The benchmark's device run: l=2 with T1 on every site.
            (2, True, 2520),
            # Dephasing only at l=6: the map build outweighs the cheap steps.
            (6, False, 2520),
            # Past the size cap no step count the budget admits makes a map.
            (11, True, open_system.SUBSTEP_BUDGET),
            (30, True, open_system.SUBSTEP_BUDGET),
        ]
        for l, relaxation, n_steps in cases:
            lat = build_lattice(l, [PI] * l)
            dim = lat.num_sites + 1
            with pytest.raises(Picked):
                lindblad_evolve(
                    with_vacuum(hamiltonian_single_excitation(lat)),
                    DephasingRates.uniform(lat.num_sites, 0.01),
                    DensityMatrix.single_excitation(lat, "A,1"),
                    [0.0, float(n_steps)],
                    extra_collapse=_relaxation_operators(dim, 0.01) if relaxation else [],
                    max_step=1.0,
                )
        assert picks == [True, False, False, False]
        assert 16 * 35**4 > open_system.STEP_MAP_MAX_BYTES  # l = 11: 35 states

    def test_one_map_per_distinct_substep(self, monkeypatch):
        builds = {"_liouvillian": [], "_rk4_map": []}

        def counting(name):
            original = getattr(open_system, name)

            def wrapper(*args):
                builds[name].append(args[1:])
                return original(*args)

            return wrapper

        for name in builds:
            monkeypatch.setattr(open_system, name, counting(name))
        lat = build_lattice(1, [PI])
        dim = lat.num_sites + 1
        # Gaps of 1, 1, 1 and 0.2 at step 0.3: substeps of 0.25 in three gaps, one of 3.2 - 3.
        times = [0.0, 1.0, 2.0, 3.0, 3.2]
        lindblad_evolve(
            with_vacuum(hamiltonian_single_excitation(lat)),
            DephasingRates.uniform(lat.num_sites, 0.05),
            DensityMatrix.single_excitation(lat, "A,1"),
            times,
            extra_collapse=_relaxation_operators(dim, 0.01),
            max_step=0.3,
        )
        assert len(builds["_liouvillian"]) == 1
        assert [dt for (dt,) in builds["_rk4_map"]] == [0.25, 3.2 - 3.0]

    @pytest.mark.parametrize("uses_map", [True, False])
    def test_divergence_raises_on_both_paths(self, monkeypatch, uses_map):
        monkeypatch.setattr(open_system, "_batch_pays", lambda *a: uses_map)
        lat = build_lattice(1, [PI])
        with pytest.raises(NumericalError, match="trace drifted"):
            lindblad_evolve(
                with_vacuum(hamiltonian_single_excitation(lat)),
                DephasingRates.uniform(4, 0.1),
                DensityMatrix.single_excitation(lat, "A,1"),
                np.linspace(0, 2000, 5),
                max_step=2.0,
            )


class TestSubsteps:
    def test_chunks_cover_each_gap_in_order(self, monkeypatch):
        monkeypatch.setattr(open_system, "SUBSTEP_CHUNK", 5)
        calls = []

        def advance(state, start, index, dt):
            calls.append((start, dt, index.tolist()))
            return state

        # Gaps of 2 and 3 at step 0.25: 8 and 12 substeps of exactly 0.25.
        checkpoints = np.array([0.0, 2.0, 5.0])
        starts, counts, lengths = open_system._substep_grid(checkpoints, 0.25)
        grid = starts, [open_system._chunks(n_sub) for n_sub in counts.tolist()], lengths
        list(open_system._substeps(np.zeros(2), checkpoints, grid, advance))
        assert calls == [
            (0.0, 0.25, [0, 1, 2, 3, 4]), (0.0, 0.25, [5, 6, 7]),
            (2.0, 0.25, [0, 1, 2, 3, 4]), (2.0, 0.25, [5, 6, 7, 8, 9]), (2.0, 0.25, [10, 11]),
        ]

    def test_budget_refused_before_any_step(self, monkeypatch):
        # The walk's grid is planned, and refused, before ``_substeps`` takes a step.
        monkeypatch.setattr(open_system, "SUBSTEP_BUDGET", 19)

        def advance(*args):
            raise AssertionError("stepped")

        checkpoints = np.array([2.0, 5.0])
        with pytest.raises(ConfigError, match="needs 20 substeps"):
            next(open_system._substeps(np.zeros(2), checkpoints, open_system._substep_grid(checkpoints, 0.25), advance))

    @pytest.mark.parametrize(
        "checkpoints, step",
        [(np.linspace(0.0, 1e308, 101), 0.02), (np.array([1e10]), 1e-300)],
        ids=["total-overflows", "count-overflows"],
    )
    def test_overflowing_counts_refused_without_a_warning(self, checkpoints, step):
        # 100 finite counts of 5e307 whose total overflows, and one count
        # that overflows itself: each refused by the budget, with no numpy
        # overflow warning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="needs inf substeps"):
                open_system._substep_grid(checkpoints, step)

    def test_lindblad_budget(self):
        lat = build_lattice(1, [PI])
        with pytest.raises(ConfigError, match="substeps"):
            lindblad_evolve(
                with_vacuum(hamiltonian_single_excitation(lat)),
                DephasingRates.uniform(4, 0.1),
                DensityMatrix.single_excitation(lat, "A,1"),
                [0.0, 1.0],
                max_step=1e-8,
            )


class TestFidelity:
    def test_equal_distributions(self):
        n = np.array([0.25, 0.25, 0.5])
        assert fidelity(n, n) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_half_overlap(self):
        assert fidelity([0.5, 0.5], [1.0, 0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            fidelity([-0.1, 1.1], [0.5, 0.5])

    def test_renormalizes_with_warning(self):
        with pytest.warns(UserWarning, match="renormalizing"):
            value = fidelity([0.5, 0.4995], [0.5, 0.5])
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_rejects_badly_normalized(self):
        with pytest.raises(ConfigError):
            fidelity([0.5, 0.3], [0.5, 0.5])

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_permutation_equivariance(self, a, b, rand):
        size = min(len(a), len(b))
        n = np.array(a[:size]) / sum(a[:size])
        n_th = np.array(b[:size]) / sum(b[:size])
        value = fidelity(n, n_th)
        assert 0.0 <= value <= 1.0
        perm = list(range(size))
        rand.shuffle(perm)
        assert fidelity(n[perm], n_th[perm]) == pytest.approx(value, abs=1e-12)
