"""Harness tests: monolithic solver, norms, manufactured solutions,
scenario runner, CSV reports, configuration, and the CLI."""

from dataclasses import fields, replace

import numpy as np
import pytest

import rrlab.cli as cli
import rrlab.lab
from rrlab.dense import dense_space_time_matrix, dense_space_time_solve
from rrlab.interface import IterationConfig, run_pr
from rrlab.lab import (ConfigError, CsvReport, ScenarioConfig,
                       default_problem, field_error_norm, glue_fields,
                       global_trace, least_squares_order, mms_exact_nodal,
                       mms_spec, parse_config, restrict_field,
                       run_mms_spatial, run_mms_temporal, run_scenario,
                       setup_problem, solve_monolithic, spec_from_scenario)
from rrlab.mesh import ProblemSpec, build_mesh
from rrlab.subsolve import SpaceTimeField


def small_config(**kw):
    kw.setdefault("scenario", "converge")
    kw.setdefault("nx", 8)
    kw.setdefault("ny", 8)
    kw.setdefault("n_steps", 8)
    kw.setdefault("tol", 1e-9)
    kw.setdefault("max_iter", 100)
    return ScenarioConfig(**kw)


class TestMonolithic:
    def test_zero_source(self):
        spec = ProblemSpec(dimension=2, nx=4, ny=4, interface_x=0.5,
                           source=None, n_steps=4)
        setup = setup_problem(spec)
        assert not solve_monolithic(setup).values.any()

    def test_1d_three_node_hand_case(self):
        # single free dof: u^k = (f + (m/tau) u^{k-1}) / (m/tau + k_stiff)
        spec = ProblemSpec(dimension=1, nx=2, interface_x=0.5,
                           source=lambda x, t: np.ones_like(x),
                           horizon=1.0, n_steps=2)
        setup = setup_problem(spec)
        u = solve_monolithic(setup)
        tau, m, k, f = 0.5, 1.0 / 3.0, 4.0, 0.5
        u1 = f / (m / tau + k)
        u2 = (f + m / tau * u1) / (m / tau + k)
        np.testing.assert_allclose(u.values[1:, 0], [u1, u2], rtol=1e-14)

    def test_residual_diagnostic(self):
        # oracle: the dense space-time system, solved and applied at once
        setup = setup_problem(default_problem(nx=4, n_steps=4))
        ops = setup.global_ops
        u = solve_monolithic(setup).values[1:]
        np.testing.assert_allclose(u, dense_space_time_solve(ops),
                                   rtol=1e-12, atol=1e-15)
        W = dense_space_time_matrix(ops)
        f = (ops.grid.tau * ops.loads).ravel()
        assert np.linalg.norm(W @ u.ravel() - f) < 1e-12 * np.linalg.norm(f)
        bumped = u.copy()
        bumped[1, 0] += 1.0
        assert np.linalg.norm(W @ bumped.ravel() - f) > 1e-3 * np.linalg.norm(f)

    def test_monolithic_matches_converged_transmission(self):
        spec = default_problem(nx=8, n_steps=8)
        setup = setup_problem(spec)
        u_ref = solve_monolithic(setup)
        cfg = IterationConfig(s=1.0, tol=1e-12, max_iter=100)
        eta, rep = run_pr(setup.solvers, cfg)
        assert rep.status == "converged"
        for i, (solver, ops) in enumerate(
                [(setup.solver_1, setup.ops_1),
                 (setup.solver_2, setup.ops_2)], start=1):
            ref = restrict_field(u_ref, setup.dec, i)
            u = solver.dirichlet_solve(eta=eta, loads=ops.loads)
            err = field_error_norm(u, ref, ops)
            assert err <= 10 * cfg.tol


class TestFieldNorms:
    def test_identical_fields(self):
        setup = setup_problem(default_problem(nx=4, n_steps=4))
        u = solve_monolithic(setup)
        g = setup.global_ops
        assert field_error_norm(u, u, g) == 0.0

    def test_homogeneity(self):
        setup = setup_problem(default_problem(nx=4, n_steps=4))
        g = setup.global_ops
        u = solve_monolithic(setup)
        zero = SpaceTimeField(np.zeros_like(u.values))
        double = SpaceTimeField(2 * u.values)
        n1 = field_error_norm(u, zero, g)
        n2 = field_error_norm(double, zero, g)
        assert n2 == pytest.approx(2 * n1, rel=1e-13)

    def test_matches_direct_summation(self):
        setup = setup_problem(default_problem(nx=4, n_steps=4))
        g = setup.global_ops
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((5, g.n_dofs))
        vals[0] = 0.0
        u = SpaceTimeField(vals)
        zero = SpaceTimeField(np.zeros_like(vals))
        MK = (g.M + g.K).toarray()
        direct = np.sqrt(sum(g.grid.tau * v @ MK @ v for v in vals[1:]))
        assert field_error_norm(u, zero, g) == \
            pytest.approx(direct, rel=1e-13)


class TestGluing:
    def test_restrict_glue_roundtrip_exact(self):
        setup = setup_problem(default_problem(nx=8, n_steps=4))
        u = solve_monolithic(setup)
        u1 = restrict_field(u, setup.dec, 1)
        u2 = restrict_field(u, setup.dec, 2)
        reglued = glue_fields(u1, u2, setup.dec)
        np.testing.assert_array_equal(reglued.values, u.values)

    def test_mismatched_traces_rejected(self):
        setup = setup_problem(default_problem(nx=8, n_steps=4))
        u = solve_monolithic(setup)
        u1 = restrict_field(u, setup.dec, 1)
        vals = restrict_field(u, setup.dec, 2).values
        vals[-1, -1] += 1e-12
        with pytest.raises(ValueError, match="interface traces"):
            glue_fields(u1, SpaceTimeField(vals), setup.dec)

    def test_global_trace_matches_restrictions(self):
        setup = setup_problem(default_problem(nx=8, n_steps=4))
        u = solve_monolithic(setup)
        eta = global_trace(u, setup.dec)
        u1 = restrict_field(u, setup.dec, 1)
        np.testing.assert_array_equal(
            eta.values, u1.values[1:, setup.dec.interior_1.size:])


class TestManufacturedSolutions:
    def test_exact_solution_vanishes_at_boundary_and_start(self):
        spec = mms_spec(2, 8, 8, 1.0)
        mesh = build_mesh(spec)
        all_nodes = np.arange(mesh.n_nodes)
        vals = mms_exact_nodal(mesh, all_nodes, np.array([0.0, 0.5]))
        assert not vals[0].any()
        np.testing.assert_allclose(vals[1][mesh.boundary], 0.0, atol=1e-14)

    def test_spatial_errors_decrease_quadratically(self):
        rows = run_mms_spatial(1.0, levels=(4, 8, 16))
        errs = [r.l2_error for r in rows]
        assert errs[0] > errs[1] > errs[2]
        order = least_squares_order([r.h for r in rows], errs)
        assert order == pytest.approx(2.0, abs=0.2)

    def test_temporal_self_convergence_first_order(self):
        rows = run_mms_temporal(1.0, steps=(4, 8, 16), nx=8)
        order = least_squares_order([r.tau for r in rows],
                                    [r.l2_error for r in rows])
        assert order == pytest.approx(1.0, abs=0.2)

    def test_temporal_steps_must_divide_the_reference(self):
        # 3 steps do not divide the reference's 4 * 8 = 32: their times
        # are not reference times, so the study is refused
        with pytest.raises(ValueError, match="divide"):
            run_mms_temporal(1.0, steps=(3, 4), nx=8)


class TestConfigParsing:
    def test_parse_with_comments_and_lists(self):
        text = """
        # a comment
        scenario = spectrum
        nx = 8            # trailing comment
        s_values = 0.5, 2.0
        theta = 0.5
        """
        cfg = parse_config(text)
        assert cfg.scenario == "spectrum"
        assert cfg.nx == 8
        assert cfg.s_values == (0.5, 2.0)
        assert cfg.theta == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("scenario = converge\nnz = 4\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("scenario = converge\nnx = eight\n")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("scenario = warp\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("scenario converge\n")

    def test_spectrum_dense_guard_counts_interface_dofs(self):
        # ny = 5 gives 4 interface dofs in 2D, 1D has one; the guard
        # bounds n_steps * n_interface, and only spectrum probes densely
        from rrlab.interface import DENSE_COLUMN_GUARD
        n_steps = DENSE_COLUMN_GUARD // 4
        parse_config(f"scenario = spectrum\nny = 5\nn_steps = {n_steps}\n")
        with pytest.raises(ConfigError, match="n_interface"):
            parse_config(f"scenario = spectrum\nny = 5\n"
                         f"n_steps = {n_steps + 1}\n")
        parse_config(f"scenario = spectrum\ndimension = 1\n"
                     f"n_steps = {DENSE_COLUMN_GUARD}\n")
        parse_config(f"scenario = converge\nn_steps = {DENSE_COLUMN_GUARD}\n")

    def test_echo_is_reparseable(self):
        cfg = small_config(s=0.3, s_values=(0.25, 4.0))
        text = "\n".join(f"{k} = {v}" for k, v in cfg.echo().items())
        assert parse_config(text) == cfg

    # a value other than the default for every ScenarioConfig field
    OTHER_VALUES = dict(
        scenario="mms", dimension=1, nx=8, ny=6, length_x=2.0,
        length_y=0.5, interface_x=1.0, alpha_left=2.0, alpha_right=0.5,
        horizon=0.5, n_steps=8, theta=0.5, source="zero", source_scale=2.5,
        s=0.3, tol=1e-8, max_iter=30, variant="rr_pde", iterations=7,
        s_values=(0.25, 4.0), mesh_levels=(2, 6), samples=3, phi=0.2,
        seed=5)

    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)])
    def test_echo_line_reparses_to_its_field(self, name):
        # each key is read as the type of its default, a tuple entry by
        # entry; the mms scenario builds no ProblemSpec from the others
        assert set(self.OTHER_VALUES) == {f.name for f in
                                          fields(ScenarioConfig)}
        want = self.OTHER_VALUES[name]
        assert want != getattr(ScenarioConfig(), name)
        echoed = replace(ScenarioConfig(), **{name: want}).echo()[name]
        line = f"{name} = {echoed}"
        text = line if name == "scenario" else f"scenario = mms\n{line}"
        got = getattr(parse_config(text), name)

        def entries(v):
            return v if isinstance(v, tuple) else (v,)
        assert got == want
        assert list(map(type, entries(got))) == list(map(type, entries(want)))

    def test_spec_from_scenario_piecewise_alpha(self):
        from rrlab.assembly import element_diffusion
        cfg = small_config(alpha_left=2.0, alpha_right=5.0)
        spec = spec_from_scenario(cfg)
        mesh = build_mesh(spec)
        alpha = element_diffusion(spec, mesh)
        assert set(np.unique(alpha)) == {2.0, 5.0}


class TestCsvReport:
    def test_render_format(self):
        rep = CsvReport(["a", "b"], [[1.0, 1.0 / 3.0]], {"scenario": "x"})
        text = rep.render()
        lines = text.strip().split("\n")
        assert lines[0].startswith("# rrlab ")
        assert lines[1].startswith("# timestamp = ")
        assert "# scenario = x" in lines
        assert lines[-2] == "a,b"
        assert lines[-1] == "1,0.33333333333333331"

    def test_rectangular_enforced(self):
        rep = CsvReport(["a", "b"], [[1.0]], {})
        with pytest.raises(ValueError, match="rectangular"):
            rep.render()

    def test_determinism_modulo_timestamp(self):
        cfg = small_config(scenario="equivalence", iterations=3)
        r1 = run_scenario(cfg).report.render()
        r2 = run_scenario(cfg).report.render()
        strip = lambda s: [l for l in s.split("\n") if not l.startswith("# timestamp")]
        assert strip(r1) == strip(r2)


class TestScenarios:
    def test_converge_scenario(self):
        result = run_scenario(small_config())
        assert result.violation is None
        rep = result.report
        assert rep.columns == ["n", "delta_eta_H", "err_X1", "err_X2",
                               "gap1", "gap2", "sp_residual"]
        ns = [row[0] for row in rep.rows]
        assert ns == list(range(1, len(ns) + 1))
        assert rep.rows[-1][1] <= 1e-9            # converged increment
        assert rep.metadata["scenario"] == "converge"

    def test_converge_scenario_default_desk_problem(self):
        # the unmodified default configuration reaches "converged"
        result = run_scenario(ScenarioConfig())
        assert result.violation is None
        assert result.report.rows[-1][1] <= 1e-10

    # the X-norm forms square the trace values, so at 1e300 err_X reads
    # nan and the gaps inf (documented), and numpy warns of it
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_converge_at_extreme_source_scales(self, scale):
        # the problem is linear, so the increments scale with the source:
        # finite, and not 0 at 1e-300; at 1e300 they contract (by about
        # 0.37 a step) to the roundoff of that scale, and are never read
        # as divergence.  The stopping rule is the absolute one
        result = run_scenario(small_config(nx=4, ny=4, n_steps=4,
                                           source_scale=scale, tol=1e-10,
                                           max_iter=200))
        assert "diverged" not in (result.violation or "")
        inc = [row[1] for row in result.report.rows]
        assert 1e-3 * scale < inc[0] < scale
        assert all(0.0 <= x < np.inf for x in inc)
        assert all(b < a for a, b in zip(inc[:20], inc[1:20]))
        assert inc[-1] <= max(1e-10, 1e-14 * inc[0])

    def test_converge_scenario_violation_on_max_iter(self):
        result = run_scenario(small_config(max_iter=2, tol=1e-14))
        assert result.violation is not None
        assert "max_iter" in result.violation

    def test_converge_scenario_rr_pde_variant_matches(self):
        pr = run_scenario(small_config()).report
        rr = run_scenario(small_config(variant="rr_pde")).report
        assert len(pr.rows) == len(rr.rows)
        for a, b in zip(pr.rows, rr.rows):
            # same iterates up to roundoff, hence near-identical diagnostics
            assert a[2] == pytest.approx(b[2], rel=1e-8, abs=1e-13)
            assert a[3] == pytest.approx(b[3], rel=1e-8, abs=1e-13)

    @pytest.mark.parametrize("nx, s, n", [(32, 0.1, 179), (32, 1.0, 23),
                                          (32, 10.0, 102), (64, 1.0, 37)])
    def test_converge_reads_the_forms_as_dirichlet_solves(
            self, nx, s, n, monkeypatch):
        # on the maps the tracked forms come from the Robin probe: S_i d
        # from its column of S_i and the X-norm errors from its Hankel
        # blocks; with tracking made to choose the other path, from a
        # homogeneous Dirichlet solve and a flux recovery per subdomain
        # and block.
        # The iterates are made the same way on both, so n and the
        # increments stay equal; the errors, gaps and residuals agree to
        # roundoff
        import rrlab.interface
        cfg = ScenarioConfig(scenario="converge", nx=nx, ny=nx, s=s,
                             max_iter=1000)
        forms = np.array(run_scenario(cfg).report.rows)
        monkeypatch.setattr(rrlab.interface, "_tracks_on_forms",
                            lambda solvers: False)
        dirichlet = np.array(run_scenario(cfg).report.rows)
        assert len(forms) == len(dirichlet) == n
        np.testing.assert_array_equal(forms[:, :2], dirichlet[:, :2])
        np.testing.assert_allclose(forms[:, 2:4], dirichlet[:, 2:4],
                                   rtol=1e-13, atol=0)
        for col in (4, 5, 6):       # gap1, gap2, sp_residual
            np.testing.assert_allclose(
                forms[:, col], dirichlet[:, col], rtol=0,
                atol=1e-13 * np.abs(dirichlet[:, col]).max())

    @pytest.mark.parametrize("variant, name", [("pr_interface", "run_pr"),
                                               ("rr_pde", "run_rr")])
    def test_converge_runs_the_driver_bound_in_lab(self, variant, name,
                                                   monkeypatch):
        # perfbench traces a driver by patching the module attribute, so
        # the converge scenario must look its driver up when it runs
        driver, called = getattr(rrlab.lab, name), []

        def spy(*args, **kwargs):
            called.append(name)
            return driver(*args, **kwargs)

        monkeypatch.setattr(rrlab.lab, name, spy)
        run_scenario(small_config(variant=variant, tol=0.0, max_iter=3))
        assert called == [name]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            small_config(variant="jacobi")

    def test_equivalence_scenario(self):
        result = run_scenario(small_config(scenario="equivalence",
                                           iterations=5))
        rep = result.report
        assert rep.columns == ["n", "max_rel_discrepancy"]
        assert len(rep.rows) == 5
        assert max(row[1] for row in rep.rows) <= 1e-10

    def test_spectrum_scenario(self):
        result = run_scenario(small_config(scenario="spectrum",
                                           n_steps=4, s_values=(0.5, 1.0)))
        rep = result.report
        assert rep.columns[:2] == ["s", "rho"]
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert 0 < row[1] < 1          # contraction
            assert min(row[2:5]) > 0       # bijectivity indicators

    def test_spectral_portrait_reads_the_kept_columns(self, monkeypatch):
        # on solvers probed at s = 0.7, a portrait at other s makes no
        # map and analyses the dense matrices of the kept columns of S_i
        from rrlab.interface import robin_trace_map
        setup = setup_problem(default_problem(nx=8, n_steps=4))
        for solver in setup.solvers:
            robin_trace_map(solver, 0.7)
        analysed, analysis = [], rrlab.lab.spectral_analysis

        def spy(S1, S2, *args):
            analysed.append((S1, S2))
            return analysis(S1, S2, *args)

        monkeypatch.setattr(rrlab.lab, "spectral_analysis", spy)
        rows = rrlab.lab.spectral_portrait(setup, (1.0, 10.0))
        assert [row.s for row in rows] == [1.0, 10.0]
        [pair] = analysed
        for S, solver in zip(pair, setup.solvers):
            assert list(solver.robin_maps) == [0.7]
            np.testing.assert_array_equal(S, solver.forms.steklov.dense())

    def test_coercivity_scenario_deterministic(self):
        cfg = small_config(scenario="coercivity", samples=5, nx=4, n_steps=4)
        r1 = run_scenario(cfg).report
        r2 = run_scenario(cfg).report
        assert r1.rows == r2.rows
        assert all(row[1] > 0 for row in r1.rows)
        assert r1.rows[-1][2] == min(row[1] for row in r1.rows)

    def test_mms_scenario_columns(self):
        cfg = small_config(scenario="mms", mesh_levels=(4, 8))
        rep = run_scenario(cfg).report
        assert rep.columns == ["h", "tau", "l2_error", "x_error",
                               "observed_order"]
        assert len(rep.rows) == 2 + 3      # spatial levels + temporal levels

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_mms_scenario_1d_rows_are_1d(self, theta):
        cfg = small_config(scenario="mms", dimension=1, theta=theta,
                           mesh_levels=(4, 8))
        rows = run_scenario(cfg).report.rows
        spatial = run_mms_spatial(theta, levels=(4, 8), dimension=1)
        temporal = run_mms_temporal(theta, dimension=1)
        np.testing.assert_array_equal(
            rows, [[r.h, r.tau, r.l2_error, r.x_error, r.order]
                   for r in spatial + temporal])

    def test_seed_override_recorded(self):
        result = run_scenario(small_config(scenario="equivalence",
                                           iterations=2), seed=42)
        assert result.report.metadata["seed"] == "42"


class TestCli:
    def write_config(self, tmp_path, text):
        p = tmp_path / "scenario.cfg"
        p.write_text(text)
        return str(p)

    def test_run_writes_report(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "scenario = equivalence\nnx = 8\nny = 8\nn_steps = 4\n"
            "iterations = 3\n")
        out = tmp_path / "out"
        code = cli.main(["run", cfg, "--out", str(out)])
        assert code == 0
        text = (out / "equivalence.csv").read_text()
        assert "n,max_rel_discrepancy" in text
        assert "# seed = 0" in text

    def test_run_invalid_config_exits_2_no_file(self, tmp_path):
        cfg = self.write_config(tmp_path, "scenario = warp\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert not (out / "warp.csv").exists()

    @pytest.mark.parametrize("text", [
        "s = 0\n", "tol = -1\n", "max_iter = 0\n", "nx = 8\nnx = 4\n",
        "s_values = -1\n", "mesh_levels = 0\n", "mesh_levels = 4,3\n",
        "seed = -1\n", "scenario = mms\ndimension = 3\n",
        "scenario = mms\ntheta = 0.7\n", "scenario = coercivity\nphi = 2.0\n",
        "s = inf\n", "s_values = 1,inf\n", "alpha_left = 0\n",
        "alpha_right = -3\n", "alpha_left = nan\n", "alpha_right = inf\n",
        "source_scale = inf\n", "source_scale = nan\n", "tol = inf\n",
        "scenario = equivalence\niterations = 0\n",
        "scenario = coercivity\nsamples = 0\n"],
        ids=["s-zero", "tol-negative", "max-iter-zero", "duplicate-key",
             "s-values-negative", "mesh-levels-below-2", "mesh-levels-odd",
             "seed-negative", "mms-dimension-3", "mms-theta-0.7",
             "coercivity-phi-2", "s-inf", "s-values-inf", "alpha-left-zero",
             "alpha-right-negative", "alpha-left-nan", "alpha-right-inf",
             "source-scale-inf", "source-scale-nan", "tol-inf",
             "equivalence-iterations-0", "coercivity-samples-0"])
    def test_run_bad_config_value_exits_2(self, tmp_path, text, capsys):
        if not text.startswith("scenario"):
            text = "scenario = converge\n" + text
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "source = foo\n", "interface_x = 0.3\n", "horizon = inf\n",
        "horizon = nan\n", "length_y = inf\n", "n_steps = 700\n"],
        ids=["unknown-source", "interface-off-mesh-lines", "horizon-inf",
             "horizon-nan", "length-y-inf", "spectrum-over-dense-guard"])
    def test_run_bad_problem_exits_2_before_making_out(self, tmp_path, text,
                                                       capsys):
        # the ProblemSpec is checked while parsing, before --out is made
        cfg = self.write_config(tmp_path, "scenario = spectrum\nnx = 4\n"
                                + text)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_run_out_names_a_file_exits_2(self, tmp_path, monkeypatch,
                                          capsys):
        cfg = self.write_config(tmp_path, "scenario = equivalence\nnx = 4\n")
        out = tmp_path / "taken"
        out.write_text("not a directory")
        ran = []
        monkeypatch.setattr(cli, "run_scenario",
                            lambda *a, **kw: ran.append(1))
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert "error: cannot create output directory" \
            in capsys.readouterr().err
        assert not ran
        assert out.read_text() == "not a directory"

    def test_run_report_path_is_a_directory_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, "scenario = equivalence\nnx = 4\niterations = 2\n")
        out = tmp_path / "out"
        (out / "equivalence.csv").mkdir(parents=True)
        assert cli.main(["run", cfg, "--out", str(out)]) == 2
        assert "error: cannot write report" in capsys.readouterr().err

    def test_run_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--help"])
        out = capsys.readouterr().out
        words = out.replace(",", " ").replace(".", " ").split()
        for f in fields(ScenarioConfig):
            assert f.name in words

    def test_run_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, "scenario = coercivity\nnx = 4\nny = 4\n"
                      "n_steps = 4\nsamples = 2\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out), "--seed", "-3"]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not (out / "coercivity.csv").exists()

    def test_run_missing_file_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_run_threshold_violation_exits_4(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "scenario = converge\nnx = 8\nny = 8\nn_steps = 4\n"
            "tol = 1e-14\nmax_iter = 2\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 4
        assert (out / "converge.csv").exists()   # data still written

    # the overflow itself warns in numpy and scipy before the refusal
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("text, message", [
        ("scenario = converge\nalpha_right = 1e308\n",
         "monolithic step matrix has non-finite entries"),
        ("scenario = spectrum\nalpha_right = 1e308\n",
         "monolithic step matrix has non-finite entries"),
        ("scenario = coercivity\nalpha_right = 1e308\nsamples = 2\n",
         "monolithic step matrix has non-finite entries"),
        ("scenario = converge\ns = 1e308\n",
         "subdomain 1 s J (s=1e+308) overflows"),
        ("scenario = equivalence\ns = 1e308\niterations = 2\n",
         "subdomain 2 s J (s=1e+308) overflows"),
        ("scenario = spectrum\ns_values = 1,1e308\n",
         "s J (s=1e+308) overflows")],
        ids=["converge-alpha", "spectrum-alpha", "coercivity-alpha",
             "converge-s", "equivalence-s", "spectrum-s"])
    def test_run_overflowing_finite_value_exits_3(self, tmp_path, text,
                                                   message, capsys):
        # finite values that pass the config checks but overflow the
        # step matrices or s J are solver failures, not tracebacks
        cfg = self.write_config(tmp_path, text + "nx = 4\nny = 4\n"
                                "n_steps = 4\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 3
        assert f"error: solver failure: {message}" in capsys.readouterr().err

    def test_run_nanometre_domain_exits_0(self, tmp_path):
        # the interface is found on a 4 nm square, and the run completes
        cfg = self.write_config(
            tmp_path, "scenario = converge\nlength_x = 4e-9\n"
                      "length_y = 4e-9\nnx = 8\nny = 8\ninterface_x = 2e-9\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "converge.csv").exists()

    def test_run_seed_override(self, tmp_path):
        cfg = self.write_config(
            tmp_path, "scenario = coercivity\nnx = 4\nny = 4\n"
                      "n_steps = 4\nsamples = 2\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out), "--seed", "7"]) == 0
        assert "# seed = 7" in (out / "coercivity.csv").read_text()

    def test_check_wiring(self, monkeypatch):
        import rrlab.acceptance
        monkeypatch.setattr(rrlab.acceptance, "run_acceptance", lambda: 0)
        assert cli.main(["check"]) == 0
