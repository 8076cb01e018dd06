import json

import pytest

from mtbudget import cli
from mtbudget.cli import main
from mtbudget.data import parse_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SYNTH = "k=3,d=10,n=400,rel=0.8,noise=0.1,seed=5"


class TestRun:
    def test_json_fields(self, capsys):
        code, out = run_cli(capsys, "run", "--algo", "mtrbp",
                            "--graph", "complete", "--budget", "20",
                            "--synth", SYNTH)
        assert code == 0
        doc = json.loads(out)
        assert doc["algo"] == "mtrbp"
        assert doc["budget_resolved"] == 20
        assert doc["kernel"] == "linear:norm"
        assert 0.0 <= doc["f_measure"] <= 1.0
        assert doc["final_active"] <= 20
        assert len(doc["per_task"]) == 3
        assert doc["trajectory"] and len(doc["trajectory"][0]) == 3

    def test_percent_budget_resolves(self, capsys):
        code, out = run_cli(capsys, "run", "--algo", "mtbprj",
                            "--graph", "complete", "--budget", "25%",
                            "--synth", SYNTH)
        assert code == 0
        doc = json.loads(out)
        assert 1 <= doc["budget_resolved"] < 400

    @pytest.mark.filterwarnings("ignore:mtforg mistake bound")
    def test_byte_identical_reruns(self, capsys):
        argv = ("run", "--algo", "mtforg", "--graph", "complete",
                "--budget", "15", "--seed", "3", "--synth", SYNTH)
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_csv_row(self, capsys):
        code, out = run_cli(capsys, "run", "--algo", "mtrbp",
                            "--graph", "disconnected", "--budget", "10",
                            "--synth", SYNTH, "--csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("algo,graph,B,")
        assert row.split(",")[0] == "mtrbp"

    def test_graph_file(self, capsys, tmp_path):
        gpath = tmp_path / "g.graph"
        gpath.write_text("k 3\n1 2\n2 3\n")
        code, out = run_cli(capsys, "run", "--algo", "mtbprj2",
                            "--graph", str(gpath), "--budget", "10",
                            "--synth", SYNTH)
        assert code == 0
        assert json.loads(out)["graph"] == str(gpath)

    def test_unnormalized_kernel_rejected(self, capsys):
        code = main(["run", "--algo", "mtrbp", "--graph", "complete",
                     "--budget", "10", "--synth", SYNTH,
                     "--kernel", "linear"])
        assert code == 1
        assert "`:norm`" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("algo", ["mtbprj", "mtbprj2", "mtrbp", "mtforg"])
    def test_zero_norm_row_fails_loudly(self, capsys, tmp_path, algo):
        # A feature-less row has no normalized kernel value; it must stop the
        # run instead of turning every later score into NaN.
        p = tmp_path / "zero.mtsvm"
        p.write_text("1 +1\n"
                     "2 -1 1:1.0 2:0.5\n"
                     "1 +1 1:0.3 3:1.0\n"
                     "2 +1 2:1.0 3:0.2\n"
                     "1 -1 1:1.0\n"
                     "2 -1 3:1.0\n"
                     "1 +1 2:0.7 3:0.4\n")
        code = main(["run", "--algo", algo, "--graph", "complete",
                     "--budget", "3", "--data", str(p)])
        assert code == 1
        assert "example 1 (task 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["inf", "nan", "-0.5"])
    def test_bad_eta_fails_cleanly(self, capsys, eta):
        # an infinite eta never inserts and a NaN one never projects
        code = main(["run", "--algo", "mtbprj", "--graph", "complete",
                     "--budget", "20", "--synth", SYNTH, "--eta", eta])
        assert code == 1
        assert "error: eta must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("--kernel", "gauss:nan"), "kernel gamma and offset must be finite"),
        (("--kernel", "gauss:inf"), "kernel gamma and offset must be finite"),
        (("--kernel", "poly:2:nan:norm"), "kernel gamma and offset must be finite"),
        (("--budget", "inf%"), "budget fraction 'inf%' must be finite"),
        (("--budget", "nan%"), "budget fraction 'nan%' must be finite"),
        (("--epochs", "0"), "epochs must be >= 1, got 0"),
        (("--epochs", "-1"), "epochs must be >= 1, got -1"),
        (("--synth", SYNTH + ",noize=0.3"), "unknown --synth key(s) 'noize'"),
        (("--kernel", "poly:2000:1:norm"),
         "example 1 (task 1): kernel poly:2000:1:norm gives the raw self kernel inf"),
        (("--kernel", "poly:600:1:norm"),
         "example 1 (task 1): kernel poly:600:1:norm gives the raw self kernel 4.1"),
        (("--k", "0"), "--k must be at least 1, got 0"),     # once ran on the stream's k
        (("--k", "-2"), "--k must be at least 1, got -2"),
        # these once named no key, or ran on the last of two values
        (("--synth", "k=2,n=abc"), "--synth n must be an integer, got 'abc'"),
        (("--synth", "k=2,noise=x"), "--synth noise must be a number, got 'x'"),
        (("--synth", "k=2,d=3,n=20,k=3"), "--synth sets k twice: 'k=2' and 'k=3'"),
        (("--synth", "rel=0.1,relatedness=0.9"),
         "--synth sets relatedness twice: 'rel=0.1' and 'relatedness=0.9'"),
        # these once named neither the option nor the value
        (("--budget", "abc"),
         "budget must be a positive integer or a percentage such as 10%, got 'abc'"),
        (("--budget", "0.5"),
         "budget must be a positive integer or a percentage such as 10%, got '0.5'"),
        (("--budget", "%"),
         "budget must be a positive integer or a percentage such as 10%, got '%'"),
        (("--kernel", "poly:2.5:1:norm"), "cannot parse kernel spec 'poly:2.5:1:norm': "),
        (("--kernel", "gauss:x"), "cannot parse kernel spec 'gauss:x': "),
        (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
    ])
    def test_bad_input_fails_cleanly(self, capsys, argv, message):
        # each of these once ran to exit 0 on a meaningless run, or ended
        # in an unnamed error
        code = main(["run", "--algo", "mtbprj", "--graph", "complete",
                     "--budget", "20", "--synth", SYNTH, *argv])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: " + message)

    def test_graph_with_fewer_tasks_fails_cleanly(self, capsys):
        code = main(["run", "--synth", "k=3,d=5,n=50,seed=1", "--k", "2",
                     "--algo", "mtrbp", "--graph", "complete", "--budget", "5"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the stream has 3 tasks but the graph has only 2\n")

    @pytest.mark.parametrize("command", ["run", "baseline"])
    def test_task_ids_with_gaps_need_k(self, capsys, tmp_path, monkeypatch, command):
        # a mistyped task id once sized a graph of 10^12 tasks
        def no_graph(*args):
            raise AssertionError("a graph was built")
        monkeypatch.setattr(cli, "resolve_graph", no_graph)
        monkeypatch.setattr(cli.TaskGraph, "edgeless", staticmethod(no_graph))
        p = tmp_path / "typo.mtsvm"
        p.write_text("1 +1 1:1.0\n1000000000000 -1 1:2.0\n")
        argv = ["--algo", "mtrbp", "--graph", "complete"] if command == "run" else []
        assert main([command, "--data", str(p), *argv]) == 1
        assert capsys.readouterr().err == (
            "error: the largest task id is 1000000000000 but only 2 distinct tasks "
            "appear; give the task count with --k\n")

    def test_missing_stream_source_fails(self, capsys):
        code = main(["run", "--algo", "mtrbp", "--graph", "complete",
                     "--budget", "10"])
        assert code == 1

    def test_bad_algo_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--algo", "nope", "--graph", "complete",
                  "--budget", "10", "--synth", SYNTH])
        assert err.value.code == 2


class TestBaseline:
    def test_k_below_one_rejected(self, capsys):
        assert main(["baseline", "--synth", SYNTH, "--k", "0"]) == 1
        assert capsys.readouterr().err == "error: --k must be at least 1, got 0\n"

    def test_reports_battery_counters(self, capsys):
        code, out = run_cli(capsys, "baseline", "--synth", SYNTH)
        assert code == 0
        doc = json.loads(out)
        assert doc["algo"] == "perceptron_battery"
        assert doc["mistakes"] == doc["final_active"] > 0

    def test_fewer_tasks_than_the_stream_fails_cleanly(self, capsys):
        code = main(["baseline", "--synth", "k=3,d=5,n=50,seed=1", "--k", "2"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the stream has 3 tasks but the graph has only 2\n")

    def test_unnormalized_kernel_rejected(self, capsys):
        code = main(["baseline", "--synth", SYNTH, "--kernel", "linear"])
        assert code == 1
        assert "`:norm`" in capsys.readouterr().err


def assert_one_error_line(capsys, code, message):
    """Exit 1 with `message` as the only line on stderr: no traceback."""
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: %s\n" % message


class TestVerifyGraph:
    def test_passes_within_tolerance(self, capsys):
        code, out = run_cli(capsys, "verify-graph", "--k", "6",
                            "--trials", "20")
        assert code == 0
        assert json.loads(out)["max_error"] <= 1e-9

    @pytest.mark.parametrize("argv, message", [
        (("--k", "0"), "--k must be at least 1, got 0"),   # once "low >= high"
        (("--k", "-3"), "--k must be at least 1, got -3"),
        (("--trials", "-1"), "--trials must be at least 0, got -1"),
    ])
    def test_bad_counts_name_the_flag(self, capsys, argv, message):
        assert_one_error_line(capsys, main(["verify-graph", *argv]), message)


class TestBounds:
    def test_reference_values(self, capsys):
        _, out = run_cli(capsys, "bounds", "mtrbp", "--B", "100",
                         "--cg", "0.5", "--eps", "0.5")
        assert json.loads(out)["bound"] == pytest.approx(587.66, abs=0.01)
        _, out = run_cli(capsys, "bounds", "mtforg", "--B", "100")
        assert json.loads(out)["bound"] == pytest.approx(10.94, abs=0.01)

    def test_domain_error_exit_1(self, capsys):
        assert main(["bounds", "mtforg", "--B", "50"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (("mtrbp", "--cg", "nan"), "cG must lie in (0,1], got nan"),
        (("mtrbp", "--cg", "2"), "cG must lie in (0,1], got 2.0"),
        (("mtrbp", "--S", "-1"), "shift must be finite and >= 0, got -1.0"),
        (("mtrbp", "--L", "inf"), "cumulative loss must be finite and >= 0, got inf"),
        (("mtforg", "--L", "inf"), "cumulative loss must be finite and >= 0, got inf"),
        (("mtforg", "--L", "-2"), "cumulative loss must be finite and >= 0, got -2.0"),
    ])
    def test_arguments_outside_the_domain_print_no_json(self, capsys, argv, message):
        assert_one_error_line(capsys, main(["bounds", *argv, "--B", "100"]), message)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_no_command_can_print_a_non_finite_number(self, capsys, value):
        with pytest.raises(ValueError):
            cli._emit({"bound": value})
        assert capsys.readouterr().out == ""


class TestSynth:
    def test_file_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "s.mtsvm"
        code, out = run_cli(capsys, "synth", "--k", "2", "--d", "5",
                            "--n", "60", "--noise", "0.1", "--seed", "4",
                            "--out", str(out_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 60 and doc["out"] == str(out_path)
        stream = parse_dataset(out_path, k=2)
        assert len(stream) == 60 and stream.binary

    @pytest.mark.parametrize("k, d, n, message", [
        (0, 5, 10, "k must be at least 1, got 0"),     # once an IndexError
        (2, 0, 10, "d must be at least 1, got 0"),     # once 10 empty rows
        (2, 5, -1, "n must be at least 0, got -1"),    # once "negative dimensions"
    ])
    def test_bad_sizes_fail_cleanly_and_write_nothing(self, capsys, tmp_path,
                                                       k, d, n, message):
        out_path = tmp_path / "s.mtsvm"
        code = main(["synth", "--k", str(k), "--d", str(d), "--n", str(n),
                     "--out", str(out_path)])
        assert_one_error_line(capsys, code, message)
        assert not out_path.exists()

    @pytest.mark.parametrize("shift", ["9:0.5", "0:0.5", "2:nan"])
    def test_bad_shift_fails_cleanly_and_writes_nothing(self, capsys, tmp_path, shift):
        out_path = tmp_path / "s.mtsvm"
        code = main(["synth", "--k", "2", "--d", "3", "--n", "5", "--shift", shift,
                     "--out", str(out_path)])
        assert_one_error_line(capsys, code,
                              "shift %s needs a step in 1..5 and a finite angle" % shift)
        assert not out_path.exists()

    @pytest.mark.parametrize("shift", ["2", "2:", ":0.5"])
    def test_malformed_shift_entry_is_named_and_writes_nothing(self, capsys, tmp_path,
                                                               shift):
        out_path = tmp_path / "s.mtsvm"
        code = main(["synth", "--k", "2", "--d", "3", "--n", "5", "--shift", "1:0.1," + shift,
                     "--out", str(out_path)])
        assert_one_error_line(capsys, code,
                              "--shift entry %r is not step:angle, e.g. 5:0.5" % shift)
        assert not out_path.exists()

    def test_bad_synth_spec_of_run_fails_cleanly(self, capsys):
        code = main(["run", "--algo", "mtrbp", "--graph", "complete",
                     "--synth", "k=0,d=5,n=10"])
        assert_one_error_line(capsys, code, "k must be at least 1, got 0")

    def test_bad_synth_margin_of_run_fails_cleanly(self, capsys):
        code = main(["run", "--algo", "mtrbp", "--graph", "complete",
                     "--synth", "k=2,d=3,n=5,margin=nan"])
        assert_one_error_line(capsys, code, "margin must be finite and at most 1, got nan")

    def test_runs_consume_synth_file(self, capsys, tmp_path):
        out_path = tmp_path / "s.mtsvm"
        run_cli(capsys, "synth", "--k", "2", "--d", "5", "--n", "80",
                "--seed", "4", "--out", str(out_path))
        code, out = run_cli(capsys, "run", "--algo", "mtrbp",
                            "--graph", "complete", "--budget", "10",
                            "--data", str(out_path), "--k", "2")
        assert code == 0
        assert json.loads(out)["budget_resolved"] == 10


class TestEmptyStream:
    @pytest.fixture(params=["synth", "comment"])
    def empty_file(self, request, capsys, tmp_path):
        """An `mtsvm` file with no examples: what `synth --n 0` writes (0
        bytes), or one that holds only a comment."""
        path = tmp_path / "e.mtsvm"
        if request.param == "synth":
            code, out = run_cli(capsys, "synth", "--k", "2", "--d", "3", "--n", "0",
                                "--out", str(path))
            assert code == 0 and json.loads(out)["n"] == 0
        else:
            path.write_text("# no examples\n")
        return str(path)

    @pytest.mark.parametrize("budget", ["5%", "5"])
    def test_run_fails_cleanly(self, capsys, empty_file, budget):
        code = main(["run", "--data", empty_file, "--algo", "mtrbp",
                     "--graph", "complete", "--budget", budget])
        assert_one_error_line(capsys, code, "cannot run a learner on an empty stream")

    def test_baseline_fails_cleanly(self, capsys, empty_file):
        code = main(["baseline", "--data", empty_file])
        assert_one_error_line(capsys, code, "cannot run a learner on an empty stream")
