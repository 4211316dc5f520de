"""Truncated spectral evolution: assembly, stepping, closed-form decay, runs."""

import csv
import json
import math

import numpy as np
import pytest

from slipchan.core import Friction, PlanarCoeffs, PressureFamily, WaveIndex
from slipchan.errors import (
    BlowupDetected,
    HypothesisViolated,
    InvalidCase,
    StabilityViolation,
)
from slipchan.fields import PlanarField
from slipchan.galerkin import (
    COEFF_POLICIES,
    GalerkinState,
    GalerkinSystem,
    SolutionFamily,
    assemble,
    energy_report,
    explicit_solution,
    integrate,
    is_matched_pick,
    load_manifest,
    parse_friction_spec,
    run_simulation,
    strain_norm,
    write_energy_csv,
    write_trajectory_csv,
    _rhs,
)
from slipchan.helmholtz import triple_product
from slipchan.modes import build_mode

B1 = Friction.finite(1.0)
NAVIER = Friction.navier()

LAM_110 = 2.7401738843949675  # smallest full-pair eigenvalue at beta = 1


def single_system():
    return assemble([(1, 1, 0)], B1, "matched")


def c_triad():
    return assemble([(1, 1, 0), (1, 2, 0), (2, 1, 0)], B1, "c")


# ---------------------------------------------------------------------------
# coefficient policies
# ---------------------------------------------------------------------------


class TestMatchedPick:
    def test_detection(self):
        assert is_matched_pick(PlanarCoeffs(a=1, b=1, c=-1, d=1))
        assert is_matched_pick(PlanarCoeffs(a=2.5, c=-2.5))
        assert is_matched_pick(PlanarCoeffs(b=-0.3, d=-0.3))
        assert not is_matched_pick(PlanarCoeffs(a=1))
        assert not is_matched_pick(PlanarCoeffs(a=1, b=1, c=1, d=1))

    def test_policy_table(self):
        assert set(COEFF_POLICIES) == {"ab", "ad", "bd", "c", "matched"}
        assert is_matched_pick(COEFF_POLICIES["matched"])


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


class TestAssemble:
    def test_single_matched_mode_has_zero_tensor(self):
        system = single_system()
        assert system.size == 1
        assert float(np.max(np.abs(system.tensor))) == 0.0

    def test_planar_shear_basis_has_zero_tensor(self):
        system = assemble([(0, 1, 0), (0, 2, 0), (0, 1, 1)], B1, "ad")
        assert float(np.max(np.abs(system.tensor))) < 1e-12

    def test_tangential_five_mode_basis_is_transport_silent(self):
        system = assemble(
            [(1, 1, 0), (1, 2, 0), (2, 1, 0), (1, 1, 1), (0, 1, 0)], B1, "ab"
        )
        assert system.size == 5
        assert float(np.max(np.abs(system.tensor))) < 1e-10

    def test_cross_slot_triad_matches_triple_product(self):
        system = c_triad()
        ms = [
            build_mode(WaveIndex(*i), B1, PlanarCoeffs(c=1))
            for i in [(1, 1, 0), (1, 2, 0), (2, 1, 0)]
        ]
        assert system.tensor[0, 1, 2] == triple_product(*ms)
        assert system.tensor[0, 1, 2] == pytest.approx(
            -0.09737045295323836, rel=1e-12
        )
        # every entry, on the c triad plus explicit picks on indices that
        # share its planar harmonics, so witnesses collide on planar keys
        system = assemble(
            [(1, 1, 0), (1, 2, 0), (2, 1, 0), (1, 1, 0), (1, 2, 0), (1, 1, 1)],
            B1,
            [
                PlanarCoeffs(c=1),
                PlanarCoeffs(c=1),
                PlanarCoeffs(c=1),
                PlanarCoeffs(a=1, b=-0.5, c=0.3, d=2),
                PlanarCoeffs(a=1, b=0.5, c=-0.25, d=1),
                PlanarCoeffs(a=0.2, c=1),
            ],
        )
        basis = system.basis
        k = system.size
        assert np.count_nonzero(system.tensor) > k
        for i in range(k):
            for j in range(k):
                for w in range(k):
                    assert system.tensor[i, j, w] == triple_product(
                        basis[i], basis[j], basis[w]
                    ), (i, j, w)

    def test_fields_built_once_per_mode(self, monkeypatch):
        build = PlanarField.from_mode.__func__
        calls = []

        def counted(cls, mode):
            calls.append(mode)
            return build(cls, mode)

        monkeypatch.setattr(PlanarField, "from_mode", classmethod(counted))
        system = assemble(
            [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0), (1, 3, 0)], B1, "c"
        )
        assert 0 < len(calls) <= 2 * system.size

    def test_eigenvalues_sorted_even_for_shuffled_input(self):
        system = assemble([(2, 1, 0), (1, 1, 0), (1, 2, 0)], B1, "c")
        assert list(system.eigenvalues) == sorted(system.eigenvalues)
        assert (system.basis[0].index.m, system.basis[0].index.n) == (1, 1)

    def test_tensor_is_read_only(self):
        system = c_triad()
        with pytest.raises(ValueError):
            system.tensor[0, 0, 0] = 1.0

    def test_duplicate_entries_rejected(self):
        with pytest.raises(InvalidCase):
            assemble([(1, 1, 0), (1, 1, 0)], B1, "ab")

    def test_distinct_picks_on_same_index_allowed(self):
        system = assemble(
            [(1, 1, 0), (1, 1, 0)],
            B1,
            [PlanarCoeffs(a=1), PlanarCoeffs(b=1)],
        )
        assert system.size == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidCase):
            assemble([(1, 1, 0)], B1, "abc")

    def test_pick_count_mismatch_rejected(self):
        with pytest.raises(InvalidCase):
            assemble([(1, 1, 0), (1, 2, 0)], B1, [PlanarCoeffs(a=1)])

    def test_pressure_family_rejected(self):
        with pytest.raises(InvalidCase):
            assemble(
                [WaveIndex(1, 1, 0, PressureFamily.NONCONSTANT)], B1, "ab"
            )

    def test_vertical_velocity_modes_rejected(self):
        # the frictionless (1,1,1) mode couples into w; transport undefined
        with pytest.raises(HypothesisViolated):
            assemble([(1, 1, 1)], NAVIER, "ab")

    def test_empty_basis_rejected(self):
        with pytest.raises(InvalidCase):
            assemble([], B1, "ab")


class TestSystemValidation:
    def test_eigenvalue_mismatch_rejected(self):
        good = single_system()
        with pytest.raises(InvalidCase):
            GalerkinSystem(good.basis, (good.eigenvalues[0] + 0.5,), np.zeros((1, 1, 1)))

    def test_shape_mismatch_rejected(self):
        good = single_system()
        with pytest.raises(InvalidCase):
            GalerkinSystem(good.basis, good.eigenvalues, np.zeros((2, 2, 2)))

    def test_non_antisymmetric_tensor_rejected(self):
        good = c_triad()
        bad = np.array(good.tensor)
        bad[0, 1, 1] = 0.3  # symmetric-slot entry breaks energy neutrality
        with pytest.raises(InvalidCase):
            GalerkinSystem(good.basis, good.eigenvalues, bad)

    def test_antisymmetry_of_assembled_tensor(self):
        t = c_triad().tensor
        assert float(np.max(np.abs(t + np.swapaxes(t, 1, 2)))) < 1e-10


class TestState:
    def test_validation(self):
        with pytest.raises(InvalidCase):
            GalerkinState(-0.1, (1.0,))
        with pytest.raises(InvalidCase):
            GalerkinState(0.0, (math.inf,))
        with pytest.raises(InvalidCase):
            GalerkinState(math.nan, (1.0,))

    def test_norm(self):
        assert GalerkinState(0.0, (3.0, 4.0)).norm == 5.0


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


class TestIntegrate:
    def test_single_mode_matches_exponential_decay(self):
        system = single_system()
        traj = integrate(system, GalerkinState(0.0, (1.0,)), T=1.0, dt=1e-3)
        exact = math.exp(-LAM_110)
        assert abs(traj[-1].coeffs[0] - exact) / exact < 1e-6

    def test_zero_data_stays_zero(self):
        system = c_triad()
        traj = integrate(system, GalerkinState(0.0, (0.0, 0.0, 0.0)), T=0.5, dt=0.01)
        assert all(all(c == 0.0 for c in s.coeffs) for s in traj)

    def test_shear_family_decays_mode_by_mode(self):
        system = assemble([(0, 1, 0), (0, 1, 1), (0, 2, 0)], B1, "ad")
        gammas = (1.0, -0.7, 0.4)
        traj = integrate(system, GalerkinState(0.0, gammas), T=1.0, dt=1e-3)
        for k, lam in enumerate(system.eigenvalues):
            exact = gammas[k] * math.exp(-lam)
            assert abs(traj[-1].coeffs[k] - exact) < 1e-6

    def test_tangential_basis_matches_explicit_solution(self):
        system = assemble(
            [(1, 1, 0), (1, 2, 0), (2, 1, 0), (1, 1, 1), (0, 1, 0)], B1, "ab"
        )
        gammas = (0.8, -0.5, 0.3, 0.2, -0.1)
        traj = integrate(system, GalerkinState(0.0, gammas), T=1.0, dt=1e-3)
        for k, lam in enumerate(system.eigenvalues):
            assert abs(traj[-1].coeffs[k] - gammas[k] * math.exp(-lam)) < 1e-6

    def test_fourth_order_in_dt(self):
        system = single_system()
        errs = []
        for dt in (0.05, 0.025):
            traj = integrate(system, GalerkinState(0.0, (1.0,)), T=1.0, dt=dt)
            errs.append(abs(traj[-1].coeffs[0] - math.exp(-LAM_110)))
        assert 14.0 < errs[0] / errs[1] < 18.0

    def test_trajectory_sampling_and_stride(self):
        system = single_system()
        traj = integrate(system, GalerkinState(0.0, (1.0,)), T=1.0, dt=0.01, stride=10)
        assert len(traj) == 11
        for k, state in enumerate(traj):
            assert state.t == pytest.approx(0.1 * k, abs=1e-12)

    def test_initial_state_is_first_sample(self):
        system = single_system()
        initial = GalerkinState(0.0, (0.25,))
        traj = integrate(system, initial, T=0.1, dt=0.01)
        assert traj[0] is initial

    def test_stability_guard(self):
        system = c_triad()  # lambda_max = 5.74...
        with pytest.raises(StabilityViolation):
            integrate(system, GalerkinState(0.0, (1.0, 0.0, 0.0)), T=1.0, dt=0.5)

    def test_blowup_at_initial_state(self):
        system = c_triad()
        with pytest.raises(BlowupDetected):
            integrate(
                system, GalerkinState(0.0, (9e5, -8e5, 7e5)), T=0.1, dt=1e-3
            )

    def test_blowup_mid_run(self):
        system = c_triad()
        with pytest.raises(BlowupDetected) as info:
            integrate(
                system, GalerkinState(0.0, (7e5, -7e5, 0.0)), T=0.1, dt=1e-3
            )
        assert "at t =" in str(info.value)

    def test_horizon_and_stride_guards(self):
        system = single_system()
        state = GalerkinState(0.0, (1.0,))
        with pytest.raises(InvalidCase):
            integrate(system, state, T=1.0, dt=0.3)  # not a whole step count
        with pytest.raises(InvalidCase):
            integrate(system, state, T=1.0, dt=0.01, stride=7)  # 100 % 7 != 0
        with pytest.raises(InvalidCase):
            integrate(system, state, T=1.0, dt=0.01, stride=0)
        with pytest.raises(InvalidCase):
            integrate(system, state, T=-1.0, dt=0.01)
        with pytest.raises(InvalidCase):
            integrate(system, state, T=1.0, dt=-0.01)

    def test_state_size_guard(self):
        with pytest.raises(InvalidCase):
            integrate(single_system(), GalerkinState(0.0, (1.0, 2.0)), T=1.0, dt=0.01)


# ---------------------------------------------------------------------------
# energy accounting
# ---------------------------------------------------------------------------


class TestRhs:
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_matches_einsum_reference(self, k):
        rng = np.random.default_rng(k)
        for _ in range(5):
            tensor = rng.standard_normal((k, k, k))
            lam = rng.uniform(0.0, 10.0, k)
            a = rng.standard_normal(k)
            ref = -(lam * a) - np.einsum("ijk,i,j->k", tensor, a, a)
            got = _rhs(lam, tensor, a)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestEnergyReport:
    def test_single_mode_energy_decay(self):
        system = single_system()
        traj = integrate(system, GalerkinState(0.0, (0.9,)), T=1.0, dt=0.01, stride=10)
        report = energy_report(system, traj)
        for row in report:
            expected = 0.5 * 0.9**2 * math.exp(-2 * LAM_110 * row["t"])
            assert row["kinetic"] == pytest.approx(expected, rel=1e-5)
            assert row["balance_residual"] < 1e-8

    def test_zero_state_rows(self):
        system = c_triad()
        report = energy_report(system, [GalerkinState(0.0, (0.0, 0.0, 0.0))])
        assert report == [
            {"t": 0.0, "kinetic": 0.0, "dissipation": 0.0, "balance_residual": 0.0}
        ]

    def test_nonlinear_run_energy_monotone(self):
        system = c_triad()
        traj = integrate(
            system, GalerkinState(0.0, (0.5, -0.4, 0.3)), T=2.0, dt=0.01, stride=10
        )
        report = energy_report(system, traj)
        kinetic = [row["kinetic"] for row in report]
        assert all(a >= b - 1e-12 for a, b in zip(kinetic, kinetic[1:]))
        assert max(row["balance_residual"] for row in report) < 1e-8

    def test_dissipation_is_eigenvalue_weighted(self):
        system = c_triad()
        state = GalerkinState(0.0, (0.3, 0.2, -0.1))
        row = energy_report(system, [state])[0]
        expected = sum(
            lam * c * c for lam, c in zip(system.eigenvalues, state.coeffs)
        )
        assert row["dissipation"] == pytest.approx(expected, rel=1e-14)


class TestStrainBound:
    def test_small_data_strain_never_grows(self):
        system = c_triad()
        traj = integrate(
            system, GalerkinState(0.0, (0.05, -0.04, 0.03)), T=1.0, dt=0.01, stride=25
        )
        strains = [strain_norm(system, s) for s in traj]
        assert all(s <= strains[0] * 1.01 for s in strains)
        assert strains[-1] < strains[0]  # it decays outright


# ---------------------------------------------------------------------------
# explicit closed-form solutions
# ---------------------------------------------------------------------------


class TestExplicitSolution:
    def test_single_mode_headline_value(self):
        state = explicit_solution(
            SolutionFamily.SINGLE,
            friction=B1,
            indices=[(1, 1, 0)],
            gammas=[1.0],
            coeffs="matched",
            t=1.0,
        )
        assert state.coeffs[0] == pytest.approx(0.0646, abs=5e-3)
        assert state.coeffs[0] == pytest.approx(math.exp(-LAM_110), rel=1e-14)

    def test_time_zero_returns_gammas(self):
        state = explicit_solution(
            "mono",
            friction=B1,
            indices=[(0, 1, 0), (0, 1, 1)],
            gammas=[0.4, -0.2],
            coeffs="ad",
            t=0.0,
        )
        assert state.coeffs == (0.4, -0.2)

    def test_two_mode_shear_at_half_time(self):
        # eigenvalues 1.74 and 5.12 to 2 d.p.; decay factors e^-0.87, e^-2.56
        state = explicit_solution(
            SolutionFamily.MONO,
            friction=B1,
            indices=[(0, 1, 0), (0, 1, 1)],
            gammas=[1.0, 1.0],
            coeffs="ad",
            t=0.5,
        )
        assert state.coeffs[0] == pytest.approx(math.exp(-0.87), abs=1e-3)
        assert state.coeffs[1] == pytest.approx(math.exp(-2.56), abs=1e-3)

    def test_orders_by_eigenvalue(self):
        state = explicit_solution(
            SolutionFamily.MONO,
            friction=B1,
            indices=[(0, 1, 1), (0, 1, 0)],  # deliberately reversed
            gammas=[2.0, 1.0],
            coeffs="ad",
            t=0.0,
        )
        assert state.coeffs == (1.0, 2.0)

    def test_matches_integrator(self):
        indices = [(0, 1, 0), (0, 2, 0), (0, 1, 1)]
        gammas = (1.0, -0.7, 0.4)
        system = assemble(indices, B1, "ad")
        traj = integrate(system, GalerkinState(0.0, gammas), T=1.0, dt=1e-3)
        closed = explicit_solution(
            SolutionFamily.MONO,
            friction=B1,
            indices=indices,
            gammas=gammas,
            coeffs="ad",
            t=1.0,
        )
        for got, want in zip(traj[-1].coeffs, closed.coeffs):
            assert abs(got - want) < 1e-6

    def test_hypothesis_guards(self):
        with pytest.raises(HypothesisViolated):
            explicit_solution(  # single family takes exactly one index
                SolutionFamily.SINGLE,
                friction=B1,
                indices=[(1, 1, 0), (1, 2, 0)],
                gammas=[1.0, 1.0],
                coeffs="matched",
                t=0.5,
            )
        with pytest.raises(HypothesisViolated):
            explicit_solution(  # unmatched pick self-advects
                SolutionFamily.SINGLE,
                friction=B1,
                indices=[(1, 1, 0)],
                gammas=[1.0],
                coeffs="ab",
                t=0.5,
            )
        with pytest.raises(HypothesisViolated):
            explicit_solution(  # shear family needs m = 0
                SolutionFamily.MONO,
                friction=B1,
                indices=[(1, 1, 0)],
                gammas=[1.0],
                coeffs="ad",
                t=0.5,
            )
        with pytest.raises(HypothesisViolated):
            explicit_solution(  # crossflow slots forbidden in the shear family
                SolutionFamily.MONO,
                friction=B1,
                indices=[(0, 1, 0)],
                gammas=[1.0],
                coeffs="ab",
                t=0.5,
            )

    def test_input_validation(self):
        with pytest.raises(InvalidCase):
            explicit_solution(
                "exotic", friction=B1, indices=[(0, 1, 0)], gammas=[1.0], t=0.0
            )
        with pytest.raises(InvalidCase):
            explicit_solution(
                SolutionFamily.MONO,
                friction=B1,
                indices=[(0, 1, 0)],
                gammas=[1.0, 2.0],
                coeffs="ad",
                t=0.0,
            )
        with pytest.raises(InvalidCase):
            explicit_solution(
                SolutionFamily.MONO,
                friction=B1,
                indices=[(0, 1, 0)],
                gammas=[1.0],
                coeffs="ad",
                t=-1.0,
            )


# ---------------------------------------------------------------------------
# manifest-driven runs
# ---------------------------------------------------------------------------


def single_manifest(**extra):
    manifest = {
        "friction": 1.0,
        "indices": [[1, 1, 0]],
        "gammas": [1.0],
        "coeffs": "matched",
        "dt": 1e-3,
        "T": 1.0,
    }
    manifest.update(extra)
    return manifest


class TestRunSimulation:
    def test_single_mode_run(self):
        result = run_simulation(single_manifest(stride=100))
        exact = math.exp(-LAM_110)
        final = result.trajectory[-1].coeffs[0]
        assert abs(final - exact) / exact < 1e-9
        assert result.summary["friction"] == "1"
        assert result.summary["steps"] == 1000
        assert result.summary["dropped_tail"] == 0.0
        assert result.summary["final_energy"] == pytest.approx(
            0.5 * exact**2, rel=1e-8
        )

    def test_deterministic(self):
        a = run_simulation(single_manifest(stride=10))
        b = run_simulation(single_manifest(stride=10))
        assert [s.coeffs for s in a.trajectory] == [s.coeffs for s in b.trajectory]

    def test_truncation_records_dropped_tail(self):
        manifest = {
            "friction": "1",
            "indices": [[0, 1, 0], [0, 2, 0], [0, 1, 1]],
            "gammas": [1.0, 0.5, 0.25],
            "coeffs": "ad",
            "dt": 0.01,
            "T": 0.5,
            "truncate": 2,
            "seed": 42,
        }
        result = run_simulation(manifest)
        assert result.system.size == 2
        # modes sort by eigenvalue: (0,1,0) 1.74, (0,2,0) 4.74, (0,1,1) 5.12;
        # the dropped third contributes lambda * gamma^2
        lam_dropped = 5.115858365694526
        assert result.summary["dropped_tail"] == pytest.approx(
            lam_dropped * 0.25**2, rel=1e-12
        )
        assert result.summary["seed"] == 42

    def test_missing_key_rejected(self):
        for key in ("friction", "indices", "gammas", "dt", "T"):
            manifest = single_manifest()
            del manifest[key]
            with pytest.raises(InvalidCase):
                run_simulation(manifest)

    def test_truncate_bounds(self):
        with pytest.raises(InvalidCase):
            run_simulation(single_manifest(truncate=0))
        with pytest.raises(InvalidCase):
            run_simulation(single_manifest(truncate=2))

    def test_gamma_count_mismatch(self):
        with pytest.raises(InvalidCase):
            run_simulation(single_manifest(gammas=[1.0, 2.0]))


class TestManifestAndCsv:
    def test_load_manifest_roundtrip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(single_manifest()))
        assert load_manifest(path) == single_manifest()

    def test_load_manifest_rejects_non_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InvalidCase):
            load_manifest(path)

    def test_csv_writers(self, tmp_path):
        result = run_simulation(single_manifest(stride=250))
        tpath = tmp_path / "trajectory.csv"
        epath = tmp_path / "energy.csv"
        write_trajectory_csv(tpath, result.system, result.trajectory, result.report)
        write_energy_csv(epath, result.report)

        with open(tpath, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "A_1", "energy", "dissipation"]
        assert len(rows) == 1 + len(result.trajectory)
        # full-precision roundtrip of the terminal amplitude
        assert float(rows[-1][1]) == result.trajectory[-1].coeffs[0]

        with open(epath, newline="") as handle:
            erows = list(csv.reader(handle))
        assert erows[0] == ["t", "kinetic", "dissipation", "balance_residual"]
        assert float(erows[-1][1]) == result.report[-1]["kinetic"]


class TestParseFrictionSpec:
    def test_names_and_numbers(self):
        assert parse_friction_spec("navier").is_navier
        assert parse_friction_spec("dirichlet").is_dirichlet
        assert parse_friction_spec("inf").is_dirichlet
        assert parse_friction_spec("2.5").beta == 2.5
        assert parse_friction_spec(0).is_navier
        assert parse_friction_spec(0.0).is_navier
        assert parse_friction_spec(math.inf).is_dirichlet
        assert parse_friction_spec(10).beta == 10.0
        assert parse_friction_spec({"beta": 3.0}).beta == 3.0
        assert parse_friction_spec(B1) is B1

    def test_rejects_garbage(self):
        with pytest.raises(InvalidCase):
            parse_friction_spec("sticky")
        with pytest.raises(InvalidCase):
            parse_friction_spec({"alpha": 1.0})
        with pytest.raises(InvalidCase):
            parse_friction_spec(True)
        with pytest.raises(InvalidCase):
            parse_friction_spec(None)
