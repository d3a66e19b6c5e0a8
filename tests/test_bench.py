import csv
import dataclasses
import errno
import functools
import io
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from corebench.bench import (
    ALGORITHMS,
    CSV_COLUMNS,
    EXPERIMENTS,
    DataError,
    ExperimentSpec,
    ResultRow,
    _construction_rows,
    _gauss_trial,
    _stream,
    _stream_seed,
    _trial_problems,
    load_csv,
    log_grid,
    ortho_problem,
    run_experiment,
    synth_regression_data,
    write_csv,
)
from corebench import baselines, bench, cli, giga, models
from corebench.cli import build_parser, main, parse
from corebench.hilbert import WeightVector, build_problem, relative_error
from corebench.models import (
    REGRESSION_MODELS,
    GaussianMeanData,
    coreset_posterior_variance,
    gaussian_embed,
    laplace,
    project,
)

from conftest import traced_peak


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def csv_text(rows) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


def spec(**kw):
    base = dict(experiment="synth-vectors", n=50, dim=5, m_max=10,
                trials=2, seed=0)
    base.update(kw)
    return ExperimentSpec(**base)


class TestLogGrid:
    def test_single_budget(self):
        assert log_grid(1) == [1]

    # the grid holds 1 and m_max only by rounding geomspace's endpoints, so
    # every m_max up to 5000 is checked, in ranges named by their last value
    @pytest.mark.parametrize("low, high", [(1, 2), (3, 10), (11, 100), (101, 1000),
                                           (1001, 5000)], ids=["2", "10", "100", "1000", "5000"])
    def test_endpoints_and_monotone(self, low, high):
        for m_max in range(low, high + 1):
            grid = log_grid(m_max)
            assert grid[0] == 1 and grid[-1] == m_max, m_max
            assert all(b > a for a, b in zip(grid, grid[1:])), m_max
            assert len(grid) <= 20, m_max

    def test_invalid(self):
        for m_max in (0, 2.5, 1.4):
            with pytest.raises(ValueError, match="m_max must be >= 1 and integral"):
                log_grid(m_max)
        assert log_grid(3.0) == log_grid(3)


class TestRowsWellFormed:
    def test_sizes_and_errors(self):
        rows = run_experiment(spec())
        assert rows
        for r in rows:
            assert r.algorithm in ALGORITHMS
            assert r.size <= r.M
            assert r.rel_error >= 0.0
            if r.algorithm == "giga":
                assert r.rel_error <= 1.0 + 1e-9

    def test_runs_build_no_checked_weight_vectors(self, monkeypatch):
        # constructions build weights that are valid by construction; the
        # checks run only for weights a caller passes to the constructor
        calls = []
        check = WeightVector.__post_init__

        def counted(self):
            calls.append(self)
            check(self)

        monkeypatch.setattr(WeightVector, "__post_init__", counted)
        run_experiment(spec(experiment="synth-gauss", n=6, m_max=1, trials=20))
        run_experiment(spec())
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["synth-vectors", "--n", "40", "--dim", "3"],
        ["regress", "--model", "logistic", "--n", "40"],
        ["regress", "--model", "poisson", "--n", "40"],
    ], ids=["synth-vectors", "regress-logistic", "regress-poisson"])
    def test_synthetic_run_loads_no_scipy(self, argv, tmp_path):
        # numpy is the only runtime dependency; a fresh process shows what
        # importing the CLI and running an experiment loads
        src = Path(__file__).resolve().parent.parent / "src"
        code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
                "from corebench.cli import main\n"
                "main(sys.argv[2:] + ['--trials', '1', '--m-max', '4', '--out', sys.argv[1]])\n"
                "print('scipy' in sys.modules)\n")
        out = tmp_path / "rows.csv"
        done = subprocess.run([sys.executable, "-c", code, str(out), *argv],
                              capture_output=True, text=True, check=True)
        assert out.read_text().startswith(",".join(CSV_COLUMNS))
        assert done.stdout.strip() == "False"

    def test_run_with_no_step_reports_no_cpu_time(self):
        # a trivial problem (L = 0) stops GIGA and FW before their first step
        s = spec(algorithms=("giga", "fw"))
        rows = _construction_rows(s, 0, [1, 3], build_problem([(1.0, 0.0), (-1.0, 0.0)]))
        assert [(r.algorithm, r.M, r.size, r.cpu_seconds) for r in rows] == \
            [("fw", 1, 0, 0.0), ("fw", 3, 0, 0.0), ("giga", 1, 0, 0.0), ("giga", 3, 0, 0.0)]

    def test_rows_sorted_by_trial_algorithm_m(self):
        rows = run_experiment(spec())
        keys = [(r.trial, r.algorithm, r.M) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("base", [
        spec(),
        spec(experiment="synth-gauss", n=10, m_max=1, trials=3),
    ], ids=["synth-vectors", "synth-gauss"])
    def test_order_of_algorithms_changes_no_field_but_cpu_time(self, base):
        def untimed(algorithms):
            rows = run_experiment(dataclasses.replace(base, algorithms=algorithms))
            return [dataclasses.replace(r, cpu_seconds=0.0) for r in rows]

        expected = untimed(ALGORITHMS)
        for order in itertools.permutations(ALGORITHMS):
            assert untimed(order) == expected, order

    def test_constructions_run_in_csv_order(self, monkeypatch):
        calls = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(giga, "run", recorded("giga", giga.run))
        monkeypatch.setattr(baselines, "fw_coreset", recorded("fw", baselines.fw_coreset))
        sweep = baselines.sampling_sweep
        monkeypatch.setattr(baselines, "sampling_sweep",
                            lambda p, grid, seed, method: recorded(method.lower(), sweep)(
                                p, grid, seed, method))
        run_experiment(spec(algorithms=("rnd", "is", "giga", "fw"), trials=2))
        assert calls == ["fw", "giga", "is", "rnd"] * 2


def same_problem(a, b) -> bool:
    """Whether two problems hold the same bits in every field."""
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            if value.shape != other.shape or value.tobytes() != other.tobytes():
                return False
        elif bits(value) != bits(other):
            return False
    return True


class TestInternalBuilds:
    """The package builds each problem in the array that first holds its
    vectors, so a build holds no second copy of it, and gives the bits of
    ``build_problem`` of the same vectors."""

    # each entry makes its input outside the build, which it returns
    BUILDS = {
        "synth-vectors": lambda: lambda: _trial_problems(spec(n=2000, dim=50))(0)[0],
        "ortho": lambda: lambda: ortho_problem(500),
        "synth-gauss": lambda: functools.partial(
            gaussian_embed, GaussianMeanData(np.random.default_rng(0).normal(size=100_000))),
    }

    @pytest.mark.parametrize("name", BUILDS)
    def test_peak_memory_is_one_array(self, name):
        # the array, at most one row block of its norm pass (half of it
        # for ortho's 500 rows) and the problem's per-row arrays; a second
        # copy of the array would add one more of it
        build = self.BUILDS[name]()
        build()                 # a first call imports numpy.random
        p, peak = traced_peak(build)
        rest = sum(a.nbytes for a in vars(p).values()
                   if isinstance(a, np.ndarray) and a is not p.unit_vectors)
        assert peak < 1.6 * p.unit_vectors.nbytes + rest
        assert peak < 2.6 * p.unit_vectors.nbytes

    @pytest.mark.parametrize("name", BUILDS)
    def test_bits_of_build_problem(self, name, monkeypatch):
        inputs = []
        build_in_place = bench._build_in_place

        def recorded(V):
            inputs.append(V.copy())
            return build_in_place(V)

        monkeypatch.setattr(bench, "_build_in_place", recorded)
        monkeypatch.setattr(models, "_build_in_place", recorded)
        p = self.BUILDS[name]()()
        assert len(inputs) == 1
        assert same_problem(p, build_problem(inputs[0]))


class TestSynthGauss:
    def test_extra_column_is_variance_error(self):
        rows = run_experiment(spec(experiment="synth-gauss", n=10, m_max=1,
                                   trials=3, algorithms=("giga", "fw")))
        assert all(r.extra is not None and r.extra >= 0 for r in rows)
        assert {r.M for r in rows} == {1}

    def test_equal_observations_recovered_exactly(self):
        s = spec(experiment="synth-gauss", n=6, m_max=1, trials=1,
                 algorithms=("giga",))
        rows = _construction_rows(s, 0, [1], *_gauss_trial(np.full(6, 1.7)))
        assert rows[0].rel_error == pytest.approx(0.0, abs=1e-9)
        assert rows[0].extra == pytest.approx(0.0, abs=1e-9)

    def test_extra_is_the_variance_error_of_the_input_row_posterior(self, rng):
        # extra reads the variance from the total weight alone; the closed-form
        # posterior over input rows gives the same bits
        def reference(y, weights):
            data = GaussianMeanData(y)
            problem = gaussian_embed(data)
            v_exact = 1.0 / (data.n + 1)
            _, v = coreset_posterior_variance(data, problem.to_original(weights))
            return abs(v - v_exact) / v_exact

        for _ in range(200):
            y = rng.normal(rng.normal(), rng.uniform(0.1, 10.0), size=rng.integers(1, 30))
            problem, extra = _gauss_trial(y)
            support = rng.permutation(problem.n)[:rng.integers(0, problem.n + 1)]
            weights = WeightVector(np.sort(support), rng.exponential(size=support.size) * 3)
            assert bits(extra(weights)) == bits(reference(y, weights))

        # every row of a run: the weights of each algorithm at each budget, rebuilt
        s = spec(experiment="synth-gauss", n=12, m_max=8, trials=25, seed=4)
        rows = run_experiment(s)
        grid = log_grid(s.m_max)
        checked = 0
        for trial in range(s.trials):
            draw = _stream(s.seed, trial, 0)
            mu = draw.normal()
            y = draw.normal(mu, 1.0, size=s.n)
            problem = gaussian_embed(GaussianMeanData(y))
            weights = {alg: construct(problem, grid[-1], checkpoints=grid)[1].snapshots
                       for alg, construct in (("giga", giga.run), ("fw", baselines.fw_coreset))}
            for alg, purpose in (("is", 1), ("rnd", 2)):
                weights[alg] = baselines.sampling_sweep(
                    problem, grid, _stream_seed(s.seed, trial, purpose), alg.upper())
            for r in rows[trial * len(ALGORITHMS) * len(grid):][:len(ALGORITHMS) * len(grid)]:
                assert r.trial == trial
                assert bits(r.extra) == bits(reference(y, weights[r.algorithm][r.M]))
                checked += 1
        assert checked == len(rows) == s.trials * len(ALGORITHMS) * len(grid)

    def test_rnd_rows_deterministic(self):
        s = spec(experiment="synth-gauss", n=10, m_max=1, trials=2,
                 algorithms=("rnd",))
        a = run_experiment(s)
        b = run_experiment(s)
        assert [(r.rel_error, r.size, r.extra) for r in a] == \
               [(r.rel_error, r.size, r.extra) for r in b]


class TestOrtho:
    def test_closed_form_errors(self):
        rows = run_experiment(spec(experiment="ortho", n=64, m_max=16,
                                   trials=1, algorithms=("giga", "fw")))
        for r in rows:
            if r.algorithm == "fw":
                assert r.rel_error == pytest.approx(np.sqrt(64 / r.M - 1), abs=1e-6)
            else:
                assert r.rel_error == pytest.approx(np.sqrt(1 - r.M / 64), abs=1e-6)

    def test_median_error_curves_nonincreasing(self):
        rows = run_experiment(spec(experiment="ortho", n=32, m_max=16, trials=3))
        for alg in ALGORITHMS:
            grid = sorted({r.M for r in rows})
            med = [np.median([r.rel_error for r in rows
                              if r.algorithm == alg and r.M == m]) for m in grid]
            if alg in ("giga", "fw"):
                assert all(b <= a + 1e-12 for a, b in zip(med, med[1:]))


class TestRegress:
    def test_synthetic_logistic_rows(self):
        rows = run_experiment(spec(experiment="regress", n=120, m_max=20,
                                   trials=2, algorithms=("giga", "fw")))
        assert rows
        for r in rows:
            assert np.isfinite(r.rel_error)
            assert r.size <= r.M

    def test_full_support_weights_have_zero_error(self):
        # the projected-space metric vanishes on the all-ones weight vector
        data = synth_regression_data("logistic", 80, np.random.default_rng(1))
        lap = laplace("logistic", data)
        problem = project("logistic", data, lap, 40, seed=0)
        w = WeightVector(np.arange(problem.n), np.ones(problem.n))
        assert relative_error(problem, w) <= 1e-6

    def test_synthetic_data_only_for_regression_models(self):
        with pytest.raises(ValueError, match="no synthetic generator for model 'gaussian'"):
            synth_regression_data("gaussian", 5, np.random.default_rng(0))

    def test_poisson_deterministic_given_seed(self):
        s = spec(experiment="regress", n=100, m_max=10, trials=2,
                 algorithms=("giga", "is"), model="poisson")
        a = run_experiment(s)
        b = run_experiment(s)
        assert [(r.rel_error, r.size) for r in a] == [(r.rel_error, r.size) for r in b]

    def test_ordering_at_moderate_scale(self):
        rows = run_experiment(spec(experiment="regress", n=500, m_max=100,
                                   trials=10, algorithms=("giga", "fw", "rnd"),
                                   seed=3))
        med = {alg: np.median([r.rel_error for r in rows
                               if r.algorithm == alg and r.M == 100])
               for alg in ("giga", "fw", "rnd")}
        assert med["giga"] <= med["fw"] <= med["rnd"]


class TestCsvOutput:
    def test_header_and_quoting(self):
        rows = run_experiment(spec(trials=1, algorithms=("giga",)))
        text = csv_text(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(CSV_COLUMNS)
        assert len(parsed) == len(rows) + 1
        # round-trippable floats
        assert float(parsed[1][3]) == rows[0].rel_error

    @pytest.mark.parametrize("to_file", [False, True], ids=["StringIO", "file"])
    def test_bytes_are_those_of_the_csv_writer(self, tmp_path, to_file):
        # every field is an int, an algorithm name, a float repr or empty, so
        # the hand-joined lines are the excel dialect's, quoting included
        floats = [0.0, -0.0, 1.0, 0.1, 1 / 3, 5e-324, 1.7976931348623157e308, 1e-05,
                  123456789.123, float("inf"), float("nan")]
        cpu = 0.00012345678901234567            # a many-digit repr
        rows = [ResultRow(trial, alg, m, rel, m + 3, cpu, extra)
                for trial, (alg, m, rel) in enumerate(
                    (alg, m, rel) for alg in ALGORITHMS for m in (1, 1000) for rel in floats)
                for extra in (None, floats[trial % len(floats)])]

        def written(write, path):
            if not to_file:
                out = io.StringIO()
                write(out)
                return out.getvalue().encode()
            with open(path, "w", newline="") as out:
                write(out)
            return path.read_bytes()

        def by_csv_writer(out):
            writer = csv.writer(out)
            writer.writerow(CSV_COLUMNS)
            for r in rows:
                writer.writerow((r.trial, r.algorithm, r.M, repr(r.rel_error), r.size,
                                 repr(r.cpu_seconds), "" if r.extra is None else repr(r.extra)))

        expected = written(by_csv_writer, tmp_path / "writer.csv")
        assert written(lambda out: write_csv(rows, out), tmp_path / "rows.csv") == expected
        assert expected.count(b"\r\n") == len(rows) + 1 and b'"' not in expected
        for text in (b",inf,", b",nan,", b",-0.0,", b",0.00012345678901234567,", b",\r\n"):
            assert text in expected
        assert written(lambda out: write_csv([], out), tmp_path / "empty.csv") == \
            b"trial,algorithm,M,rel_error,size,cpu_seconds,extra\r\n"

    def test_deterministic_modulo_timing(self):
        s = spec(trials=2)
        strip_timing = lambda text: [
            row[:5] + row[6:] for row in csv.reader(io.StringIO(text))]
        a = strip_timing(csv_text(run_experiment(s)))
        b = strip_timing(csv_text(run_experiment(s)))
        assert a == b


FIXTURE = "x1,x2,y\n1.0,2.0,1\n-0.5,0.25,0\n3.5,-1.5,1\n"


class TestLoadCsv:
    def test_three_row_fixture(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(FIXTURE)
        data = load_csv(str(path), "y", "logistic")
        assert data.n == 3 and data.d == 2
        np.testing.assert_array_equal(data.y, [1.0, -1.0, 1.0])   # 0 -> -1

    def test_passthrough_pm_one_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.0,-1\n2.0,1\n")
        data = load_csv(str(path), "y", "logistic")
        np.testing.assert_array_equal(data.y, [-1.0, 1.0])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(FIXTURE)
        with pytest.raises(DataError, match="'label' not found"):
            load_csv(str(path), "label", "logistic")

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.0,1\noops,0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(str(path), "y", "logistic")

    def test_rows_are_numbered_by_file_line(self, tmp_path):
        # the quoted header field spans lines 1-2, so "abc" is on file line 6
        path = tmp_path / "d.csv"
        path.write_text('"x\n1",y\n1.0,1\n\n2.0,0\nabc,1\n')
        with pytest.raises(DataError, match="row 6: non-numeric value 'abc'"):
            load_csv(str(path), "y", "logistic")
        path.write_text('x,y\n1.0,1\n"2.0\n",0\n1.0,2,3\n')
        with pytest.raises(DataError, match="row 5 has 3 fields"):
            load_csv(str(path), "y", "logistic")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            load_csv(str(path), "y", "logistic")

    def test_standardize_centers_features(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(FIXTURE)
        data = load_csv(str(path), "y", "logistic", standardize=True)
        np.testing.assert_allclose(data.x.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(data.x.std(axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("text, message", [
        ("y\n1\n0\n", "no feature columns besides the label"),
        ("x,y\n\n \n", "no data rows"),
        ("x,y\n1.0,2\n2.0,1\n", r"logistic labels must be coded \{0,1\} or \{-1,1\}, "
                                 r"got \[1.0, 2.0\]"),
    ], ids=["no-features", "no-rows", "logistic-labels"])
    def test_schema_error(self, text, message, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=rf"d\.csv: {message}"):
            load_csv(str(path), "y", "logistic")

    def test_bad_poisson_counts(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.0,2\n2.0,-3\n")
        with pytest.raises(DataError, match="nonnegative"):
            load_csv(str(path), "y", "poisson")

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"x,y\n\xff\xfe,1\n")
        with pytest.raises(DataError, match=r"d\.csv: not UTF-8 text"):
            load_csv(str(path), "y", "logistic")

    def test_utf8_byte_order_mark_is_not_header_text(self, tmp_path):
        # the label is the first column, where a BOM would hide it
        path = tmp_path / "d.csv"
        path.write_bytes("y,x1\n1,0.5\n0,2.0\n".encode("utf-8-sig"))
        data = load_csv(str(path), "y", "logistic")
        np.testing.assert_array_equal(data.y, [1.0, -1.0])
        np.testing.assert_array_equal(data.x, [[0.5], [2.0]])

    def test_duplicate_column_name_is_rejected(self, tmp_path):
        # the second y would be fitted as a feature beside the first's labels
        path = tmp_path / "d.csv"
        path.write_text("y,x1,y\n1,0.5,1\n0,2.0,0\n")
        with pytest.raises(DataError, match=r"d\.csv: duplicate column 'y'"):
            load_csv(str(path), "y", "logistic")

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\nnan,1\n2.0,1\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(str(path), "y", "logistic")


class TestCli:
    def test_writes_csv_and_returns_zero(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["ortho", "--n", "16", "--m-max", "4", "--trials", "1",
                     "--algs", "giga,fw", "--out", str(out)])
        assert code == 0
        parsed = list(csv.reader(io.StringIO(out.read_text())))
        assert parsed[0] == list(CSV_COLUMNS)
        assert len(parsed) > 1

    def test_stdout_by_default(self, capsys):
        code = main(["ortho", "--n", "8", "--m-max", "2", "--trials", "1",
                     "--algs", "giga"])
        assert code == 0
        assert capsys.readouterr().out.startswith(",".join(CSV_COLUMNS))

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        assert main(["ortho", "--n", "8", "--m-max", "2", "--trials", "1"]) == 0
        assert len(built) == 1

    def test_usage_error_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-experiment"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith("corebench: error: ")

    @pytest.mark.parametrize("argv, message", [
        (["regress", "--n", "0"], "n must be >= 1"),
        (["synth-vectors", "--algs", "giga,giga"], "duplicate algorithms: giga,giga"),
        (["regress", "--standardize"], "--label-col and --standardize need --input"),
        (["ortho", "--algs", "bogus"], "unknown algorithms: ['bogus']"),
        (["ortho", "--bogus"], "unrecognized arguments: --bogus"),
        (["ortho", "--use-captree"], "unrecognized arguments: --use-captree"),
        (["ortho", "--dim", "3"], "unrecognized arguments: --dim 3"),  # only synth-* take --dim
        (["regress", "--dim", "3"], "unrecognized arguments: --dim 3"),
    ], ids=["spec-check", "duplicate-algs", "input-flag", "unknown-alg", "unknown-flag",
            "use-captree", "ortho-dim", "regress-dim"])
    def test_usage_error_after_parsing_prints_the_subcommand_usage(self, argv, message,
                                                                    capsys):
        # argparse's own errors in a subcommand's flags print its usage too
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith(f"usage: corebench {argv[0]} [-h]")
        assert lines[-1] == f"corebench {argv[0]}: error: {message}"

    def test_flags_are_spec_fields_and_defaults_are_stated_once(self):
        fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
        for name, sizes in EXPERIMENTS.items():
            command = build_parser().parse_args([name]).command
            dests = {a.dest for a in command._actions if a.option_strings} - {"help", "out"}
            assert dests <= fields, name
            assert ("dim" in dests) == name.startswith("synth-"), name
            assert parse([name]) == (ExperimentSpec(experiment=name, seed=0, **sizes), None)

    def test_unknown_experiment_rejected(self):
        # the parser offers only known subcommands; a direct caller may not
        with pytest.raises(ValueError, match="unknown experiment 'bogus'"):
            spec(experiment="bogus")

    def test_models_are_the_regression_models(self):
        # the parser offers the list the spec checks
        command = build_parser().parse_args(["regress"]).command
        model, = (a for a in command._actions if a.dest == "model")
        assert tuple(model.choices) == REGRESSION_MODELS
        with pytest.raises(ValueError, match="unknown model 'bogus'"):
            ExperimentSpec(experiment="regress", n=10, m_max=2, trials=1, seed=0,
                           model="bogus")

    @pytest.mark.parametrize("field, value", [
        ("n", 50.7), ("m_max", 2.5), ("trials", 1.5), ("seed", 0.5), ("dim", 3.0),
        ("n", None),
    ])
    def test_sizes_must_be_integers(self, field, value):
        # a fractional m_max would run the budgets of log_grid(int part)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            spec(**{field: value})
        # numpy ints pass, as they come from array arithmetic
        assert getattr(spec(**{field: np.int64(3)}), field) == 3

    def test_duplicate_algorithm_is_one_line_usage_error(self, capsys):
        # a repeated name would run that construction again and print its
        # rows twice
        with pytest.raises(SystemExit) as exc:
            main(["synth-gauss", "--trials", "1", "--algs", "giga,giga"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == \
            "corebench synth-gauss: error: duplicate algorithms: giga,giga"

    def test_empty_algorithm_list_is_one_line_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth-gauss", "--trials", "1", "--algs", ","])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == \
            "corebench synth-gauss: error: no algorithms selected; choose from giga,fw,is,rnd"
        with pytest.raises(ValueError, match="no algorithms"):
            spec(algorithms=())

    def test_data_error_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["regress", "--input", str(missing), "--trials", "1",
                     "--m-max", "2"])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_non_utf8_input_is_one_line_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"x,y\n\xff\xfe,1\n")
        code = main(["regress", "--input", str(path), "--trials", "1", "--m-max", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"corebench: data error: {path}: not UTF-8 text")

    @pytest.mark.parametrize("flags", [["--standardize"], ["--label-col", "foo"]])
    def test_input_flag_without_input_is_one_line_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["regress", "--n", "30", "--trials", "1", "--m-max", "2"] + flags)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == \
            "corebench regress: error: --label-col and --standardize need --input"

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth-vectors", "--n", "5", "--dim", "3", "--trials", "1",
                  "--m-max", "3", "--seed", "-1"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == \
            "corebench synth-vectors: error: seed must be >= 0"

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_out_is_one_line_usage_error(self, target, tmp_path,
                                                    monkeypatch, capsys):
        def run_experiment(spec):
            raise AssertionError("the run started before --out was opened")

        monkeypatch.setattr("corebench.cli.run_experiment", run_experiment)
        out = tmp_path if target == "directory" else tmp_path / "no" / "such" / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ortho", "--n", "8", "--m-max", "2", "--trials", "1",
                  "--out", str(out)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"corebench: error: cannot write {out}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("to", ["out", "stdout"])
    def test_failed_write_is_one_line_usage_error(self, to):
        # the full device opens but fails the write; stdout's flush at exit
        # must not add a second message
        src = Path(__file__).resolve().parent.parent / "src"
        argv = [sys.executable, "-m", "corebench", "synth-gauss", "--trials", "2"]
        with open("/dev/full", "w") as full:
            done = subprocess.run(argv + (["--out", full.name] if to == "out" else []),
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env={**os.environ, "PYTHONPATH": str(src)})
        name = "/dev/full" if to == "out" else "stdout"
        assert done.returncode == 1
        assert done.stderr == \
            f"corebench: error: cannot write {name}: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("argv", [
        ["synth-vectors", "--n", "1000000000000", "--dim", "50"],
        ["ortho", "--n", "10000000"],
        ["regress", "--n", "100000000000000"],
    ], ids=["synth-vectors", "ortho", "regress"])
    def test_input_too_large_to_allocate_is_one_line_error(self, argv, tmp_path):
        # each first array needs over 128 TiB, more address space than a
        # process has, so numpy's request fails at once and touches no page
        src = Path(__file__).resolve().parent.parent / "src"
        out = tmp_path / "rows.csv"
        done = subprocess.run([sys.executable, "-m", "corebench", *argv,
                               "--trials", "1", "--out", str(out)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 1
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("corebench: error: out of memory: Unable to allocate")
        assert out.read_text() == ""

    def test_out_naming_the_input_is_one_line_usage_error(self, tmp_path,
                                                          monkeypatch, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0.5,1\n-0.5,0\n")
        before = path.read_bytes()
        monkeypatch.chdir(tmp_path)
        for out in (str(path), "d.csv", str(tmp_path / "." / "d.csv")):
            with pytest.raises(SystemExit) as exc:
                main(["regress", "--input", str(path), "--trials", "1",
                      "--m-max", "2", "--out", out])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err == f"corebench: error: --out {out} is the --input file\n"
            assert path.read_bytes() == before

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_oversized_csv_field_is_one_line_data_error(self, where, tmp_path, capsys):
        big = '"' + "a" * 140_000 + '"'
        path = tmp_path / "big.csv"
        path.write_text(f"{big},y\n1.0,1\n" if where == "header"
                        else f"x,y\n1.0,1\n{big},0\n")
        out = tmp_path / "rows.csv"
        code = main(["regress", "--input", str(path), "--trials", "1",
                     "--m-max", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        line = 1 if where == "header" else 3
        assert err.startswith(f"corebench: data error: {path}: line {line}: field larger")
        assert out.read_text() == ""       # opened before the run, as shell ">" does

    def test_laplace_failure_is_one_line_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("a,y\n1e300,1\n-1e300,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["regress", "--input", str(path), "--trials", "1",
                         "--m-max", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("corebench: data error: Laplace fit failed")

    @pytest.mark.parametrize("argv", [
        ["synth-vectors", "--n", "30", "--dim", "0"],
        ["synth-vectors", "--n", "30", "--dim", "-1"],
        ["ortho", "--n", "0"],
        ["ortho", "--m-max", "0"],
    ])
    def test_nonpositive_size_is_one_line_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--trials", "1", "--m-max", "2"] + argv[1:])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"corebench {argv[0]}: error: ")
        assert "must be >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["ortho", "--n", "8"],
        ["regress", "--n", "30"],
        ["synth-gauss", "--dim", "2", "--trials", "3"],
    ])
    def test_dim_ignored_where_unused(self, argv, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(argv + ["--m-max", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 1

    def test_regress_from_csv_input(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["a,b,y"]
        for _ in range(60):
            x1, x2 = rng.normal(size=2)
            label = 1 if rng.random() < 0.5 else 0
            lines.append(f"{x1},{x2},{label}")
        data_path = tmp_path / "data.csv"
        data_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rows.csv"
        code = main(["regress", "--input", str(data_path), "--label-col", "y",
                     "--standardize", "--trials", "2", "--m-max", "8",
                     "--algs", "giga,rnd",
                     "--out", str(out)])
        assert code == 0
        parsed = list(csv.reader(io.StringIO(out.read_text())))
        assert len(parsed) > 1
