import argparse
import json
import random
import sys
from collections import Counter

import pytest

from centmax import exact, experiments, generators, maximize, samplers
from centmax.cli import _load_graph, main
from centmax.maximize import build_pool, sample_budget
from centmax.generators import gen_kronecker, gen_ran
from centmax.graph import write_edge_list
from conftest import diamond_chain_edges, edge_sets


def run(argv, capsys=None):
    code = main(argv)
    return code


def write_graph(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


P3 = "0 1\n1 2\n"
P4 = "0 1\n1 2\n2 3\n"


def no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the pool-size guard")


# An eps whose square underflows to 0, or whose budget passes the float
# range, asks for an oversized pool (exit 3); an eps that is not a finite
# number is refused by name (exit 2).
eps_out_of_range = pytest.mark.parametrize("eps, code, message", [
    ("1e-300", 3, "exceeds the guard"),
    ("1e-160", 3, "exceeds the guard"),
    ("nan", 2, "eps must be positive and finite"),
    ("inf", 2, "eps must be positive and finite"),
])


class TestMaximize:
    def test_p3_selects_center(self, tmp_path):
        inp = write_graph(tmp_path, P3)
        out = tmp_path / "res.json"
        code = run(["maximize", "--input", inp, "--k", "1",
                    "--sampler", "betweenness", "--budget", "explicit:10000",
                    "--seed", "7", "-o", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["selected"] == [1]
        assert data["sample_count"] == 10000
        assert data["config"]["seed"] == 7

    def test_budget_presets(self, tmp_path, capsys):
        inp = write_graph(tmp_path, P4)
        out = tmp_path / "r.json"
        assert run(["maximize", "--input", inp, "--k", "1", "--eps", "0.5",
                    "--budget", "equal-yalg", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        # 2 ln(2*64)/0.25 = 38.8 -> 39
        assert data["sample_count"] == 39

    def test_theory_budget_halves_eps(self, tmp_path):
        inp = write_graph(tmp_path, P4)
        out = tmp_path / "t.json"
        assert run(["maximize", "--input", inp, "--k", "1", "--eps", "0.5",
                    "--budget", "theory", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["sample_count"] == sample_budget(4, 1, 0.25) == 134

    def test_byte_identical_reruns(self, tmp_path):
        inp = write_graph(tmp_path, P4)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["maximize", "--input", inp, "--k", "2",
                        "--budget", "explicit:500", "--seed", "3",
                        "-o", str(out)]) == 0
            data = json.loads(out.read_text())
            data.pop("wall_time")
            data["config"].pop("output")
            outs.append(json.dumps(data))
        assert outs[0] == outs[1]

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run(["maximize", "--k", "1"]) == 2

    def test_io_error(self, tmp_path):
        assert run(["maximize", "--input", str(tmp_path / "nope.txt"),
                    "--k", "1"]) == 4

    def test_zero_eps_is_usage_error(self, tmp_path, capsys):
        inp = write_graph(tmp_path, P4)
        assert run(["maximize", "--input", inp, "--k", "1",
                    "--eps", "0"]) == 2
        assert "eps must be positive" in capsys.readouterr().err

    @eps_out_of_range
    @pytest.mark.parametrize("budget", ["paper-exp", "equal-yalg", "theory"])
    def test_eps_past_the_float_range_ends_in_an_exit_code(
            self, budget, eps, code, message, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(samplers, "split_chunks", no_sampling)
        out = tmp_path / "m.json"
        assert run(["maximize", "--gen", "ran:5", "--k", "1", "--budget",
                    budget, "--eps", eps, "-o", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_k_is_usage_error(self, tmp_path, capsys):
        inp = write_graph(tmp_path, P4)
        assert run(["maximize", "--input", inp, "--k", "0"]) == 2
        assert "k must be a positive integer" in capsys.readouterr().err

    def test_input_with_gen_is_usage_error(self, tmp_path, capsys):
        inp = write_graph(tmp_path, P3)
        assert run(["maximize", "--input", inp, "--gen", "ran:50",
                    "--k", "1"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_two_runs_to_stdout_in_one_process(self, tmp_path, capsys):
        inp = write_graph(tmp_path, P3)
        argv = ["maximize", "--input", inp, "--k", "1",
                "--budget", "explicit:100", "-o", "-"]
        assert run(argv) == 0
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.count('"selected": [') == 2
        assert not sys.stdout.closed

    def test_k_above_n_is_refused_before_sampling(self, monkeypatch,
                                                  capsys):
        monkeypatch.setattr(samplers, "split_chunks", no_sampling)
        assert run(["maximize", "--gen", "ran:300", "--k", "500",
                    "--budget", "explicit:3000"]) == 2
        assert "k=500 exceeds node count 300" in capsys.readouterr().err

    @pytest.mark.parametrize("budget, message", [
        ("paper-exp", "a pool budget needs n >= 2 nodes, got n=0"),
        ("equal-yalg", "a pool budget needs n >= 2 nodes, got n=0"),
        ("theory", "k=1 exceeds node count 0"),
        ("explicit:100", "k=1 exceeds node count 0")])
    def test_empty_graph_is_refused_by_name(self, budget, message, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.setattr(samplers, "split_chunks", no_sampling)
        inp = write_graph(tmp_path, "", "empty.txt")
        out = tmp_path / "e.json"
        assert run(["maximize", "--input", inp, "--k", "1",
                    "--budget", budget, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        (["--maxk-scaled", "0"], "maxk_scaled must be in (0, 1], got 0.0"),
        (["--maxk-scaled", "1.5"], "maxk_scaled must be in (0, 1], got 1.5"),
        (["--ell", "-3"], "ell must be a positive integer, got -3"),
        (["--ell", "0"], "ell must be a positive integer, got 0")])
    @pytest.mark.parametrize("budget", [
        [], ["--budget", "explicit:100"], ["--budget", "equal-yalg"],
        ["--budget", "theory"]])
    def test_theory_flags_out_of_range_are_refused_under_every_budget(
            self, budget, flag, message, tmp_path, monkeypatch, capsys):
        # Only the theory budget reads --ell and --maxk-scaled, yet a value
        # out of range is refused whichever budget runs.
        monkeypatch.setattr(samplers, "split_chunks", no_sampling)
        out = tmp_path / "m.json"
        assert run(["maximize", "--gen", "ran:50", "--k", "2", *flag,
                    *budget, "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_oversized_pool_is_size_error(self, monkeypatch, capsys):
        monkeypatch.setattr(samplers, "sample", no_sampling)
        # The theory budget here is about 1.4e10 samples.
        assert run(["maximize", "--gen", "ran:50", "--k", "2",
                    "--budget", "theory", "--maxk-scaled", "1e-6"]) == 3
        assert "exceeds the guard" in capsys.readouterr().err

    def test_pool_over_the_node_guard_is_size_error(self, tmp_path,
                                                     monkeypatch, capsys):
        argv = ["maximize", "--gen", "kron:12", "--sampler", "rr", "--p",
                "0.3", "--k", "2", "--budget", "explicit:200", "--seed", "4"]
        g = _load_graph(argparse.Namespace(gen="kron:12", seed=4))
        stored = build_pool(g, samplers.SamplerSpec("rr-influence", p=0.3),
                            200, random.Random(4)).edge_nodes.size
        out = tmp_path / "m.json"
        monkeypatch.setattr(maximize, "_NODE_GUARD", stored - 1)
        assert run(argv + ["-o", str(out)]) == 3
        assert "exceeds the guard" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(maximize, "_NODE_GUARD", stored)
        assert run(argv + ["-o", str(out)]) == 0
        assert json.loads(out.read_text())["sample_count"] == 200


class TestExact:
    def test_brandes_star(self, tmp_path):
        inp = write_graph(tmp_path, "0 1\n0 2\n0 3\n")
        out = tmp_path / "b.csv"
        assert run(["exact", "--input", inp, "--mode", "brandes",
                    "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node,score,scaled_score"
        assert lines[1].startswith("0,6.0,")

    def test_brute_p4(self, tmp_path):
        inp = write_graph(tmp_path, P4)
        out = tmp_path / "b.csv"
        assert run(["exact", "--input", inp, "--mode", "brute", "--k", "1",
                    "-o", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[1] == "4.0"

    def test_exgreedy(self, tmp_path):
        inp = write_graph(tmp_path, P4)
        out = tmp_path / "g.csv"
        assert run(["exact", "--input", inp, "--mode", "exgreedy", "--k", "2",
                    "-o", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[1].split(",")[1] == "1"

    @pytest.mark.parametrize("mode,k", [("exgreedy", "0"), ("exgreedy", "-1"),
                                        ("brute", "0")])
    def test_k_below_one_is_usage_error(self, tmp_path, capsys, mode, k):
        inp = write_graph(tmp_path, P4)
        out = tmp_path / "g.csv"
        assert run(["exact", "--input", inp, "--mode", mode, "--k", k,
                    "-o", str(out)]) == 2
        assert "k=" in capsys.readouterr().err
        assert not out.exists()

    def test_path_count_overflow_is_size_error(self, tmp_path, capsys):
        # 1100 chained diamonds: 2^1100 shortest paths overflow float64.
        inp = write_graph(tmp_path, "".join(
            f"{a} {b}\n" for a, b in diamond_chain_edges(1100)))
        out = tmp_path / "b.csv"
        assert run(["exact", "--input", inp, "--mode", "brandes",
                    "-o", str(out)]) == 3
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_brute_past_exact_path_counts_is_size_error(self, tmp_path,
                                                        capsys):
        # 54 chained diamonds: 2^54 shortest paths, past float64's exact
        # integers.
        inp = write_graph(tmp_path, "".join(
            f"{a} {b}\n" for a, b in diamond_chain_edges(54)))
        out = tmp_path / "b.csv"
        assert run(["exact", "--input", inp, "--mode", "brute", "--k", "1",
                    "-o", str(out)]) == 3
        assert "2^53" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,code", [
        (["--mode", "brute", "--k", "1"], 3),
        (["--gen", "ran:10", "--mode", "exgreedy", "--k", "11"], 2)])
    def test_refused_run_leaves_an_existing_output_as_it_was(
            self, tmp_path, argv, code):
        # The brute-force run is refused past 2^53 shortest paths, the
        # exhaustive greedy for a k above n.
        if "--gen" not in argv:
            argv = ["--input", write_graph(tmp_path, "".join(
                f"{a} {b}\n" for a, b in diamond_chain_edges(54)))] + argv
        out = tmp_path / "old.csv"
        out.write_bytes(b"round,node\n1,7\n")
        assert run(["exact", *argv, "-o", str(out)]) == code
        assert out.read_bytes() == b"round,node\n1,7\n"


class TestGenerate:
    def test_ran_k4(self, tmp_path):
        out = tmp_path / "ran.txt"
        assert run(["generate", "ran:4", "-o", str(out)]) == 0
        edges = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert len(edges) == 6

    def test_hypercube(self, tmp_path):
        out = tmp_path / "q3.txt"
        assert run(["generate", "hypercube:3", "-o", str(out)]) == 0
        edges = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert len(edges) == 12

    def test_kron(self, tmp_path):
        out = tmp_path / "k.txt"
        assert run(["generate", "kron:8,0.9,0.5,0.5,0.2",
                    "-o", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert "generator=kronecker" in header and "i=8" in header

    def test_roundtrip_through_loader(self, tmp_path):
        out = tmp_path / "ran.txt"
        assert run(["generate", "ran:30", "--seed", "5",
                    "-o", str(out)]) == 0
        from centmax.graph import load_edge_list
        g = load_edge_list(str(out))
        assert g.n == 30 and g.m == 84

    def test_bad_params(self, tmp_path):
        assert run(["generate", "ran:2",
                    "-o", str(tmp_path / "x.txt")]) == 2

    @pytest.mark.parametrize("spec", ["ran:", "ran", "ran:x", "ran:30,2",
                                      "hypercube", "lowerbound:100",
                                      "kron:4,0.1", "kron:4,1,1,1,x",
                                      "kron:4,2,0,0,0", "grid:4"])
    def test_malformed_spec_is_usage_error(self, tmp_path, spec, capsys):
        out = tmp_path / "x.txt"
        assert run(["generate", spec, "-o", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_gen_is_usage_error(self, capsys):
        assert run(["maximize", "--gen", "kron:4,2,0,0,0", "--k", "1"]) == 2
        assert "probabilities" in capsys.readouterr().err

    def test_same_graph_as_library(self, tmp_path):
        out, ref = tmp_path / "cli.txt", tmp_path / "lib.txt"
        assert run(["generate", "ran:30", "--seed", "5", "-o", str(out)]) == 0
        write_edge_list(gen_ran(30, random.Random(5)), str(ref),
                        header="generator=ran n=30 seed=5")
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["generate", "ran:9223372036854775808"],
        ["generate", "lowerbound:100000000000,0.001"],
        ["generate", "kron:22"],
        ["maximize", "--gen", "ran:9223372036854775808", "--k", "1"]])
    def test_oversized_generator_is_refused_unbuilt(self, argv, tmp_path,
                                                    monkeypatch, capsys):
        # The edge guard comes before any loop or allocation: neither the
        # graph nor the generator's random stream is ever made.
        def never(*args, **kwargs):
            raise AssertionError("a refused graph was built")
        for name in ("Graph", "RanState", "_np_rng"):
            monkeypatch.setattr(generators, name, never)
        out = tmp_path / "big.txt"
        assert run(argv + ["-o", str(out)]) == 3
        assert "past the generator guard 10000000" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_takes_seed_matrix(self):
        args = argparse.Namespace(gen="kron:6,0.8,0.4,0.3,0.1", seed=5)
        g = _load_graph(args)
        ref = gen_kronecker([[0.8, 0.4], [0.3, 0.1]], 6,
                            random.Random(5 ^ 0x9E3779B9))
        assert g.meta["seed_matrix"] == [0.8, 0.4, 0.3, 0.1]
        assert g.adj == ref.adj
        assert _load_graph(argparse.Namespace(
            gen="kron:6,1,1,1,1", seed=5)).m == 64 * 63 // 2


class TestAttack:
    def test_p4_curve(self, tmp_path):
        inp = write_graph(tmp_path, P4)
        out = tmp_path / "a.csv"
        assert run(["attack", "--input", inp, "--cap", "2", "--seed", "1",
                    "-o", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "removed,lcc_size"
        assert rows[1] == "0,4"
        assert rows[2] == "1,2"

    def test_triangle_sampler(self, tmp_path):
        inp = write_graph(tmp_path, "0 1\n0 2\n1 2\n2 3\n")
        out = tmp_path / "a.csv"
        assert run(["attack", "--input", inp, "--sampler", "triangle",
                    "--cap", "1", "-o", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["removed,lcc_size",
                                                    "0,4", "1,3"]

    def test_negative_cap_is_usage_error(self, tmp_path, capsys):
        inp = write_graph(tmp_path, P4)
        assert run(["attack", "--input", inp, "--cap", "-1"]) == 2
        assert "cap=-1" in capsys.readouterr().err

    def test_negative_cap_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("ordering sampled before the cap check")
        monkeypatch.setattr(experiments, "centrality_ordering", no_sampling)
        assert run(["attack", "--gen", "ran:2000", "--cap", "-1"]) == 2

    def test_zero_eps_is_usage_error(self, tmp_path, capsys):
        inp = write_graph(tmp_path, P4)
        assert run(["attack", "--input", inp, "--eps", "0"]) == 2
        assert "eps must be positive" in capsys.readouterr().err

    @eps_out_of_range
    def test_eps_past_the_float_range_ends_in_an_exit_code(
            self, eps, code, message, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(samplers, "split_chunks", no_sampling)
        out = tmp_path / "a.csv"
        assert run(["attack", "--gen", "ran:20", "--eps", eps,
                    "-o", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_triangle_on_an_empty_graph(self, tmp_path):
        inp = write_graph(tmp_path, "", "empty.txt")
        out = tmp_path / "a.csv"
        assert run(["attack", "--input", inp, "--sampler", "triangle",
                    "--cap", "5", "-o", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["removed,lcc_size", "0,0"]


class TestInfluence:
    def test_p_zero_spread_equals_k(self, tmp_path):
        inp = write_graph(tmp_path, P4)
        out = tmp_path / "i.csv"
        assert run(["influence", "--input", inp, "--k", "2", "--p", "0",
                    "--num-rr", "200", "--runs", "50",
                    "--methods", "im,betw,tri", "-o", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "method,k,spread"
        for row in rows[1:]:
            assert float(row.split(",")[2]) == 2.0

    def test_zero_eps_is_usage_error(self, tmp_path, capsys):
        inp = write_graph(tmp_path, P4)
        assert run(["influence", "--input", inp, "--k", "1",
                    "--methods", "betw", "--eps", "0"]) == 2
        assert "eps must be positive" in capsys.readouterr().err

    def test_oversized_rr_pool_is_size_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(samplers, "sample", no_sampling)
        inp = write_graph(tmp_path, P4)
        assert run(["influence", "--input", inp, "--k", "1",
                    "--num-rr", "20000000"]) == 3

    @pytest.mark.parametrize("methods, code", [("betw,im", 3),
                                                ("betw,bogus", 2),
                                                ("tri,cov,im", 3)])
    def test_methods_and_pool_checked_before_any_method(
            self, methods, code, monkeypatch, capsys):
        def no_method(*args, **kwargs):
            raise AssertionError("a method ran before the checks")
        monkeypatch.setattr(experiments, "centrality_ordering", no_method)
        monkeypatch.setattr(experiments, "ris_influence_max", no_method)
        monkeypatch.setattr(samplers, "split_chunks", no_method)
        assert run(["influence", "--gen", "ran:50", "--k", "1",
                    "--methods", methods, "--num-rr", "20000000"]) == code
        err = capsys.readouterr().err
        assert ("exceeds the guard" if code == 3 else "'bogus'") in err

    def test_oversized_ordering_pool_is_size_error(self, monkeypatch):
        monkeypatch.setattr(samplers, "split_chunks", no_sampling)
        assert run(["influence", "--gen", "ran:50", "--k", "1",
                    "--methods", "im,cov", "--num-rr", "100",
                    "--eps", "0.001"]) == 3

    @pytest.mark.parametrize("methods", ["betw", "im", "tri"])
    @pytest.mark.parametrize("k", [-1, 0, 41])
    def test_k_outside_1_to_n_is_refused_before_any_method(
            self, k, methods, tmp_path, monkeypatch, capsys):
        def no_method(*args, **kwargs):
            raise AssertionError("a method ran before the k check")
        monkeypatch.setattr(experiments, "centrality_ordering", no_method)
        monkeypatch.setattr(experiments, "ris_influence_max", no_method)
        monkeypatch.setattr(exact, "triangle_greedy", no_method)
        out = tmp_path / "i.csv"
        assert run(["influence", "--gen", "ran:40", "--k", str(k),
                    "--methods", methods, "-o", str(out)]) == 2
        assert ("k must be positive" if k < 1
                else "k=41 exceeds node count 40") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("methods", ["betw", "im", "tri"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--p", "1.5", "p must be in [0,1]"),
        ("--p", "-0.5", "p must be in [0,1]"),
        ("--p", "nan", "p must be in [0,1]"),
        ("--runs", "0", "--runs must be positive"),
        ("--runs", "-2", "--runs must be positive")])
    def test_bad_p_or_runs_is_refused_before_any_method(
            self, flag, value, message, methods, tmp_path, monkeypatch,
            capsys):
        def no_method(*args, **kwargs):
            raise AssertionError("a method ran before the checks")
        monkeypatch.setattr(experiments, "centrality_ordering", no_method)
        monkeypatch.setattr(experiments, "ris_influence_max", no_method)
        monkeypatch.setattr(exact, "triangle_greedy", no_method)
        out = tmp_path / "i.csv"
        assert run(["influence", "--gen", "ran:40", "--k", "2",
                    "--methods", methods, flag, value, "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_runs_past_the_guard_are_refused_before_any_method(
            self, tmp_path, monkeypatch, capsys):
        def no_method(*args, **kwargs):
            raise AssertionError("a method ran before the runs guard")
        monkeypatch.setattr(experiments, "ris_influence_max", no_method)
        monkeypatch.setattr(experiments, "ic_spread", no_method)
        out = tmp_path / "r.csv"
        assert run(["influence", "--gen", "ran:20", "--k", "2",
                    "--runs", "9223372036854775808", "-o", str(out)]) == 3
        assert "runs=9223372036854775808 exceeds the guard" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_same_flags_same_output(self, tmp_path):
        argv = ["influence", "--gen", "ran:60", "--k", "3", "--p", "0.2",
                "--num-rr", "500", "--runs", "300", "--methods", "im,tri"]
        out = tmp_path / "i.csv"
        texts = []
        for _ in range(2):
            assert run(argv + ["-o", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_config_has_no_sampler(self, tmp_path):
        out = tmp_path / "i.csv"
        assert run(["influence", "--input", write_graph(tmp_path, P4),
                    "--k", "1", "--methods", "tri", "--runs", "5",
                    "-o", str(out)]) == 0
        config = json.loads(out.read_text().splitlines()[0][len("# config "):])
        assert "sampler" not in config and config["k"] == 1
        with pytest.raises(SystemExit) as exc:
            run(["influence", "--gen", "ran:10", "--k", "1",
                 "--sampler", "rr"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["maximize", "--k", "1"],
                                  ["sample-dump", "--count", "1"],
                                  ["evolve"]])
def test_triangle_sampler_is_offered_only_on_attack(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--sampler", "triangle"])
    assert exc.value.code == 2
    assert "invalid choice: 'triangle'" in capsys.readouterr().err


KAPPA, P, EPS = ("kappa must be a positive integer", "p must be in [0,1]",
                 "eps must be positive and finite")


@pytest.mark.parametrize("argv, message", [
    (["maximize", "--gen", "ran:20", "--k", "2", "--p", "5"], P),
    (["maximize", "--gen", "ran:20", "--k", "2", "--kappa", "0"], KAPPA),
    (["maximize", "--gen", "ran:20", "--k", "2", "--sampler", "kpath",
      "--p", "-1"], P),
    (["maximize", "--gen", "ran:20", "--k", "2", "--budget", "explicit:100",
      "--eps", "nan"], EPS),
    (["sample-dump", "--gen", "ran:20", "--count", "5", "--kappa", "-3"],
     KAPPA),
    (["evolve", "--input", "t.txt", "--k-values", "1", "--p", "7"], P),
    (["influence", "--gen", "ran:20", "--k", "2", "--methods", "betw",
      "--kappa", "0"], KAPPA),
    (["influence", "--gen", "ran:20", "--k", "2", "--methods", "tri",
      "--kappa", "0"], KAPPA),
    (["attack", "--gen", "ran:20", "--sampler", "rr", "--kappa", "0"], KAPPA),
    (["attack", "--gen", "ran:20", "--sampler", "triangle", "--kappa", "0"],
     KAPPA),
    (["attack", "--gen", "ran:20", "--sampler", "triangle", "--p", "2"], P),
    (["attack", "--gen", "ran:20", "--sampler", "triangle", "--eps", "nan"],
     EPS),
    (["attack", "--gen", "ran:20", "--sampler", "triangle", "--eps", "-1"],
     EPS),
    (["influence", "--gen", "ran:20", "--k", "2", "--methods", "tri",
      "--eps", "nan"], EPS),
    (["influence", "--gen", "ran:20", "--k", "2", "--methods", "tri",
      "--eps", "-1"], EPS),
    (["influence", "--gen", "ran:20", "--k", "2", "--methods", "im",
      "--eps", "nan"], EPS),
    (["influence", "--gen", "ran:20", "--k", "2", "--methods", "im",
      "--eps", "-1"], EPS)])
def test_sampler_flags_are_checked_under_every_sampler_and_method(
        argv, message, tmp_path, monkeypatch, capsys):
    # --kappa, --p and --eps are refused by name before any draw, also
    # where the chosen sampler or method does not read them.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the flag checks")
    for module, name in ((samplers, "split_chunks"), (samplers, "sample"),
                         (exact, "triangle_greedy"),
                         (experiments, "ic_spread")):
        monkeypatch.setattr(module, name, no_draw)
    temporal = write_graph(tmp_path, "0 1 5\n1 2 6\n", "t.txt")
    argv = [temporal if a == "t.txt" else a for a in argv]
    out = tmp_path / "out.txt"
    assert run(argv + ["-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestEvolve:
    def test_single_snapshot(self, tmp_path):
        inp = write_graph(tmp_path, "0 1 5\n1 2 5\n", "t.txt")
        out = tmp_path / "e.csv"
        assert run(["evolve", "--input", inp, "--snapshots", "5",
                    "--k-values", "1", "-o", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "t,n,m,avg_deg,k,scaled_centrality"
        assert len(rows) == 2
        assert rows[1].startswith("5,3,2,")

    def test_negative_snapshots_take_either_form(self, tmp_path):
        inp = write_graph(tmp_path, "0 1 -5\n1 2 0\n2 3 3\n3 0 -7\n",
                          "t.txt")
        texts = []
        for form in (["--snapshots", "-5,0,3"], ["--snapshots=-5,0,3"]):
            out = tmp_path / "e.csv"
            assert run(["evolve", "--input", inp, *form, "--k-values", "1",
                        "-o", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert [row.split(",")[0] for row in texts[0].splitlines()[2:]] \
            == ["-5", "0", "3"]

    def test_zero_eps_is_usage_error(self, tmp_path, capsys):
        inp = write_graph(tmp_path, "0 1 5\n1 2 5\n", "t.txt")
        assert run(["evolve", "--input", inp, "--snapshots", "5",
                    "--eps", "0"]) == 2
        assert "eps must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    def test_eps_is_checked_before_any_snapshot(self, tmp_path, capsys, eps):
        # Snapshot 3 is empty, so no pool is drawn for it.
        inp = write_graph(tmp_path, "0 1 10\n1 2 20\n2 3 30\n", "t.txt")
        out = tmp_path / "e.csv"
        assert run(["evolve", "--input", inp, "--snapshots", "3",
                    "--eps", eps, "-o", str(out)]) == 2
        assert "eps must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_a_huge_snapshot_count_is_every_stamp(self, tmp_path):
        inp = write_graph(tmp_path, "0 1 5\n1 2 6\n2 3 6\n", "t.txt")
        rows = []
        for count in ("3", "1000000000000"):
            out = tmp_path / f"e{count}.csv"
            assert run(["evolve", "--input", inp, "--num-snapshots", count,
                        "--k-values", "1", "-o", str(out)]) == 0
            rows.append(out.read_text().splitlines()[1:])
        assert rows[0] == rows[1]
        assert [row.split(",")[0] for row in rows[0][1:]] == ["5", "6"]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_snapshot_count_is_usage_error(self, tmp_path,
                                                       capsys, count):
        inp = write_graph(tmp_path, "0 1 5\n1 2 6\n", "t.txt")
        out = tmp_path / "e.csv"
        assert run(["evolve", "--input", inp, "--num-snapshots", count,
                    "-o", str(out)]) == 2
        assert "snapshot count must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("directed", [False, True])
    def test_repeated_and_reversed_edges(self, tmp_path, directed):
        # Graph drops repeats (and, undirected, reversals), so the rows
        # equal those of the file without them.
        plain = [(0, 1, 1), (1, 2, 2), (2, 3, 2), (3, 0, 3), (1, 3, 4)]
        extra = [(1, 0, 2), (0, 1, 3), (2, 3, 4), (3, 2, 4)]
        kept = plain + ([(u, v, t) for u, v, t in extra if (u, v) not in
                         {(a, b) for a, b, _ in plain}] if directed else [])
        rows = []
        for name, recs in (("a.txt", plain + extra), ("b.txt", kept)):
            text = "".join(f"{u} {v} {t}\n" for u, v, t in recs)
            out = tmp_path / (name + ".csv")
            assert run(["evolve", "--input", write_graph(tmp_path, text, name),
                        "--snapshots", "2,3,4", "--k-values", "1,2"]
                       + (["--directed"] if directed else [])
                       + ["-o", str(out)]) == 0
            rows.append(out.read_text().splitlines()[1:])
        assert rows[0] == rows[1] and len(rows[0]) == 7

    def test_needs_temporal_input(self):
        with pytest.raises(SystemExit) as exc:
            run(["evolve", "--gen", "ran:10"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run(["evolve"])
        assert exc.value.code == 2

    def test_nonpositive_k_is_usage_error(self, tmp_path, capsys):
        inp = write_graph(tmp_path, "0 1 5\n1 2 5\n", "t.txt")
        out = tmp_path / "e.csv"
        assert run(["evolve", "--input", inp, "--snapshots", "5",
                    "--k-values", "0,2", "-o", str(out)]) == 2
        assert "k must be positive" in capsys.readouterr().err


class TestSampleDump:
    def test_dump_count_and_labels(self, tmp_path):
        inp = write_graph(tmp_path, "7 9\n9 20\n")
        out = tmp_path / "d.txt"
        assert run(["sample-dump", "--input", inp, "--count", "30",
                    "--seed", "2", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 30
        nonempty = {l for l in lines if l}
        assert nonempty == {"9"}

    @pytest.mark.parametrize("sampler", ["rr", "betweenness"])
    @pytest.mark.parametrize("chunk", [7, samplers._CHUNK])
    def test_dump_lists_the_pool(self, tmp_path, sampler, chunk,
                                 monkeypatch):
        monkeypatch.setattr(samplers, "_CHUNK", chunk)
        out = tmp_path / "d.txt"
        assert run(["sample-dump", "--gen", "ran:30", "--sampler", sampler,
                    "--p", "0.3", "--count", "40", "--seed", "6",
                    "-o", str(out)]) == 0
        g = _load_graph(argparse.Namespace(gen="ran:30", seed=6))
        spec = samplers.SamplerSpec(
            "rr-influence" if sampler == "rr" else sampler, p=0.3)
        drawn = samplers.sample_many(g, spec, 40, random.Random(6))
        pool = build_pool(g, spec, 40, random.Random(6)).edges
        assert g.labels == list(range(g.n))
        lines = out.read_text().splitlines()
        assert lines == [" ".join(map(str, sorted(h)))
                         for h in edge_sets(drawn)]
        assert Counter(lines) == Counter(
            " ".join(map(str, sorted(h.tolist()))) for h in pool)

    def test_nonpositive_count_is_usage_error(self, tmp_path, capsys):
        inp = write_graph(tmp_path, "7 9\n9 20\n")
        out = tmp_path / "d.txt"
        assert run(["sample-dump", "--input", inp, "--count", "0",
                    "-o", str(out)]) == 2
        assert "--count must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_refused_pair_draw_writes_no_file(self, tmp_path, capsys):
        # One node: no ordered pair to draw.
        inp = write_graph(tmp_path, "0 0\n")
        out = tmp_path / "d.txt"
        assert run(["sample-dump", "--input", inp, "--count", "5",
                    "-o", str(out)]) == 2
        assert "n >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [10 ** 7 + 1, 2 ** 63])
    def test_count_past_the_guard_is_refused_before_any_draw(
            self, count, tmp_path, monkeypatch, capsys):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the --count guard")
        monkeypatch.setattr(samplers, "split_chunks", no_draw)
        out = tmp_path / "d.txt"
        assert run(["sample-dump", "--gen", "ran:50", "--sampler", "rr",
                    "--count", str(count), "-o", str(out)]) == 3
        assert f"--count={count} exceeds the guard 10000000" in \
            capsys.readouterr().err
        assert not out.exists()


def test_lowerbound_past_the_float_range_is_refused_unbuilt(
        tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a refused graph was built")
    monkeypatch.setattr(generators, "Graph", never)
    out = tmp_path / "lb.txt"
    assert run(["generate", "lowerbound:1" + "0" * 400 + ",0.5",
                "-o", str(out)]) == 3
    assert "past the generator guard 10000000" in capsys.readouterr().err
    assert not out.exists()


class Drew(BaseException):
    """Raised in place of a draw: the run passed every check.  Not an
    Exception, so that main() lets it through."""


def bounded(size):
    """A stub draw that asserts its size is within the pool guard."""
    def draw(*args, **kwargs):
        assert size(*args, **kwargs) <= maximize._POOL_GUARD, \
            "a draw past the pool guard got through"
        raise Drew
    return draw


# One number of each template is replaced by each of NUMBERS; T is the
# temporal edge list.  Together they hold every numeric flag of every
# subcommand and every number of every generator spec.
NUMBER_TEMPLATES = [
    "generate ran:{}", "generate hypercube:{}", "generate kron:{}",
    "generate kron:4,{},0.5,0.5,0.2", "generate kron:4,0.9,{},0.5,0.2",
    "generate kron:4,0.9,0.5,{},0.2", "generate kron:4,0.9,0.5,0.5,{}",
    "generate lowerbound:{},0.5", "generate lowerbound:400,{}",
    "generate ran:20 --seed {}",
    "maximize --gen ran:{} --k 2", "maximize --gen ran:20 --k {}",
    "maximize --gen ran:20 --k 2 --kappa {}",
    "maximize --gen ran:20 --k 2 --p {}",
    "maximize --gen ran:20 --k 2 --eps {}",
    "maximize --gen ran:20 --k 2 --budget theory --eps {}",
    "maximize --gen ran:20 --k 2 --budget theory --ell {}",
    "maximize --gen ran:20 --k 2 --budget theory --maxk-scaled {}",
    "maximize --gen ran:20 --k 2 --budget equal-yalg --eps {}",
    "maximize --gen ran:20 --k 2 --budget explicit:{}",
    "maximize --gen ran:20 --k 2 --seed {}",
    "exact --gen ran:{} --mode brandes",
    "exact --gen ran:12 --mode brandes --seed {}",
    "exact --gen ran:12 --mode exgreedy --k {}",
    "exact --gen ran:12 --mode brute --k {}",
    "attack --gen ran:20 --cap {}",
    "attack --gen ran:20 --sampler triangle --cap {}",
    "attack --gen ran:20 --eps {}", "attack --gen ran:20 --kappa {}",
    "attack --gen ran:20 --p {}", "attack --gen ran:20 --seed {}",
    "influence --gen ran:20 --k {}",
    "influence --gen ran:20 --k 2 --num-rr {}",
    "influence --gen ran:20 --k 2 --runs {}",
    "influence --gen ran:20 --k 2 --eps {}",
    "influence --gen ran:20 --k 2 --kappa {}",
    "influence --gen ran:20 --k 2 --p {}",
    "influence --gen ran:20 --k 2 --methods tri --seed {}",
    "evolve --input T --snapshots {}", "evolve --input T --num-snapshots {}",
    "evolve --input T --k-values {}", "evolve --input T --eps {}",
    "evolve --input T --kappa {}", "evolve --input T --p {}",
    "evolve --input T --seed {}",
    "sample-dump --gen ran:20 --count {}",
    "sample-dump --gen ran:20 --count 5 --kappa {}",
    "sample-dump --gen ran:20 --count 5 --p {}",
    "sample-dump --gen ran:20 --count 5 --seed {}",
]
NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", str(2 ** 63),
           "1" + "0" * 400]


@pytest.mark.parametrize("number", NUMBERS,
                         ids=NUMBERS[:-2] + ["2**63", "10**400"])
@pytest.mark.parametrize("template", NUMBER_TEMPLATES)
def test_every_number_ends_in_an_exit_code(template, number, tmp_path,
                                           monkeypatch):
    # Each run either reaches a draw of at most the pool guard (stubbed,
    # so nothing is drawn) or ends in exit 0, 2, 3 or 4 without a
    # traceback; a refusal leaves no -o file.
    monkeypatch.setattr(samplers, "split_chunks",
                        bounded(lambda g, spec, q, rng: q))
    monkeypatch.setattr(samplers, "sample", bounded(lambda *args: 0))
    monkeypatch.setattr(exact, "triangle_greedy", bounded(lambda *args: 0))
    monkeypatch.setattr(experiments, "ic_spread",
                        bounded(lambda g, seeds, p, runs, rng: runs))
    temporal = write_graph(tmp_path, "0 1 5\n1 2 6\n2 0 7\n", "t.txt")
    argv = [temporal if a == "T" else a
            for a in template.format(number).split()]
    out = tmp_path / "out.txt"
    try:
        code = run(argv + ["-o", str(out)])
    except SystemExit as exc:
        code = exc.code
    except Drew:
        return
    assert code in (0, 2, 3, 4)
    if code:
        assert not out.exists()
