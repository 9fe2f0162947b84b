"""End-to-end command-line tests driven through main() in-process."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nestquad import cli, rulestore
from nestquad.cli import main
from nestquad.errors import ConvergenceError, IntegrityError, SchemaError
from nestquad.gauss import gauss_rule
from nestquad.orthopoly import chebyshev1, custom_family, \
    generalized_hermite, generalized_laguerre, legendre, \
    recurrence_coefficients
from nestquad.rulestore import catalog_scan, load, make_rule_record, save


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pair_record(tmp_path, capsys):
    path = tmp_path / "pair.json"
    code, _, _ = run(capsys, "generate", "--family", "legendre",
                     "--n1", "2", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture()
def seed_record(tmp_path, capsys):
    path = tmp_path / "g1.json"
    code, _, _ = run(capsys, "gauss", "--family", "legendre",
                     "--n", "1", "--out", str(path))
    assert code == 0
    return path


class TestGenerate:
    def test_summary_line_and_record(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        code, stdout, _ = run(capsys, "generate", "--family", "legendre",
                              "--n1", "3", "--out", str(out))
        assert code == 0
        assert re.search(
            r"n1=3 n2=7 alpha1=5 alpha2=11 residual=\S+ "
            r"iterations=\d+ time=\S+", stdout)
        record = load(out)
        assert record.kind == "pair"
        assert record.payload.fine.n == 7

    @pytest.mark.parametrize("family, n1", [("laguerre", "3"),
                                            ("hermite", "4")])
    def test_relaxed_pair_reads_back(self, tmp_path, capsys, family, n1):
        # these pairs certify only with a negative weight; their record
        # says so, and every command that reads it accepts it
        path = tmp_path / "pair.json"
        code, _, _ = run(capsys, "generate", "--family", family, "--n1", n1,
                         "--allow-negative-weights", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["data"]["weight_floor_relaxed"]
        pair = load(path).payload
        assert pair.fine.weight_floor_relaxed
        assert np.min(pair.fine.weights) < 0.0
        assert run(capsys, "export", "--in", str(path),
                   "--out", str(tmp_path / "fine.csv"))[0] == 0
        assert run(capsys, "integrate", "--rule", str(path),
                   "--function", "constant")[0] == 0
        assert run(capsys, "extend", "--in", str(path))[0] == 0
        assert len(catalog_scan(tmp_path)) == 1

    def test_jacobi_example(self, capsys):
        code, stdout, _ = run(capsys, "generate", "--family", "jacobi",
                              "--params", "0,0.3", "--n1", "10")
        assert code == 0
        assert "n2=21" in stdout and "alpha2=31" in stdout

    def test_n1_zero_is_usage_error(self, capsys):
        code, _, stderr = run(capsys, "generate", "--family", "legendre",
                              "--n1", "0")
        assert code == 1
        assert "n1" in stderr

    def test_unknown_family(self, capsys):
        code, _, stderr = run(capsys, "generate", "--family", "fourier",
                              "--n1", "2")
        assert code == 1
        assert "unknown family" in stderr

    def test_batch_ordered_output(self, tmp_path, capsys):
        out = tmp_path / "batch"
        code, stdout, _ = run(capsys, "generate", "--family", "legendre",
                              "--n1", "1,2", "--out", str(out))
        assert code == 0
        lines = stdout.strip().split("\n")
        assert lines[0].startswith("n1=1 n2=3")
        assert lines[1].startswith("n1=2 n2=5")
        assert (out / "pair-legendre-n1.json").exists()
        assert (out / "pair-legendre-n2.json").exists()

    def test_batch_names_each_family_of_one_kind(self, tmp_path, capsys):
        out = tmp_path / "batch"
        for params in ("0,0.3", "1,1"):
            code, _, _ = run(capsys, "generate", "--family", "jacobi",
                             "--params", params, "--n1", "1,2",
                             "--out", str(out))
            assert code == 0
        assert sorted(os.listdir(out)) == [
            f"pair-jacobi_{params}-n{n1}.json"
            for params in ("0.0_0.3", "1.0_1.0") for n1 in (1, 2)]

    def test_alpha2_init_sizes_the_table(self, capsys):
        # a 5-node rule reaches degree 9 at most, which the table covers
        code, stdout, stderr = run(capsys, "generate", "--family", "legendre",
                                   "--n1", "2", "--alpha2-init", "9")
        assert (code, stderr) == (0, "")
        assert stdout.startswith("n1=2 n2=5 alpha1=3 alpha2=")
        code, stdout, stderr = run(capsys, "generate", "--family", "legendre",
                                   "--n1", "2", "--alpha2-init", "19")
        assert (code, stdout) == (1, "")
        assert stderr == ("error: alpha2_initial=19 exceeds 9, the highest "
                          "degree a 5-node rule can reach\n")

    @pytest.mark.parametrize("start", ["12", "3"])
    def test_batch_start_out_of_range_searches_nothing(self, capsys,
                                                       monkeypatch, start):
        # 12 is above what n1=1 can reach, 3 not above alpha1 of n1=5;
        # either is refused before the other n1 is searched
        def no_search(*args, **kwargs):
            raise AssertionError("a search was started")

        monkeypatch.setattr(cli, "generate_nested", no_search)
        code, stdout, stderr = run(capsys, "generate", "--family", "legendre",
                                   "--n1", "5,1", "--alpha2-init", start)
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: alpha2_initial")

    def test_batch_matches_single_runs(self, tmp_path, capsys):
        # at eps 1e-16 n1=1 certifies and n1=3 fails: a batch prints, logs
        # and saves for each n1 what a run of that n1 alone does
        def generate(n1, stem):
            code, stdout, stderr = run(
                capsys, "generate", "--family", "legendre", "--n1", n1,
                "--eps", "1e-16", "--log", str(tmp_path / f"{stem}.csv"),
                "--out", str(tmp_path / stem))
            return code, re.sub(r"time=\S+", "time=*", stdout), stderr

        def record(stem, n1):
            doc = json.loads(
                (tmp_path / stem / f"pair-legendre-n{n1}.json").read_text())
            doc["provenance"].pop("timestamp")
            return doc

        batch = generate("1,3", "mixed")
        one, three = generate("1", "one"), generate("3", "three")
        assert (one[0], three[0], batch[0]) == (0, 2, 2)
        assert batch[1] == one[1] + three[1]
        assert batch[1].startswith("n1=1 n2=3 ")
        assert batch[2] == one[2] + three[2]
        assert batch[2].startswith("n1=3 FAILED ConvergenceError: ")
        for stem, n1 in (("one", 1), ("three", 3)):
            assert ((tmp_path / f"mixed-n{n1}.csv").read_bytes()
                    == (tmp_path / f"{stem}.csv").read_bytes())
        assert record("mixed", 1) == record("one", 1)
        assert sorted(p.name for p in (tmp_path / "mixed").iterdir()) \
            == ["pair-legendre-n1.json"]
        assert not (tmp_path / "three").exists()

    def test_batch_runs_in_this_process(self):
        # a batch starts no worker pool, so it never imports one
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        code = (
            "import sys\n"
            "from nestquad.cli import main\n"
            "assert main(['generate', '--family', 'legendre',\n"
            "             '--n1', '1,2']) == 0\n"
            "pools = {'concurrent.futures', 'multiprocessing'}\n"
            "print(sorted(pools & set(sys.modules)))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "[]"

    def test_diagnostics_log(self, tmp_path, capsys):
        log = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "generate", "--family", "legendre",
                         "--n1", "1", "--log", str(log))
        assert code == 0
        header = log.read_text().split("\n", 1)[0]
        assert header == ("iteration,residual_norm,newton_decrement,"
                          "c_k,lambda,alpha2")


class TestExtend:
    def test_one_point_seed_two_steps(self, seed_record, tmp_path, capsys):
        out = tmp_path / "levels"
        code, stdout, _ = run(capsys, "extend", "--in", str(seed_record),
                              "--steps", "2", "--out", str(out))
        assert code == 0
        assert stdout.strip().split("\n") == ["n2=3 alpha2=5",
                                              "n2=7 alpha2=11"]
        record = load(out / "ext-legendre-n7.json")
        assert record.mode == "patterson"
        assert record.payload.exactness_degree == 11

    def test_custom_family_records_are_named_by_digest(self, tmp_path,
                                                       capsys):
        table = recurrence_coefficients(legendre(), 20)
        family = custom_family(table.a, table.b, (-1.0, 1.0))
        seed = make_rule_record(
            gauss_rule(recurrence_coefficients(family, 1), 1))
        save(seed, tmp_path / "seed.json")
        code, _, _ = run(capsys, "extend", "--in", str(tmp_path / "seed.json"),
                         "--out", str(tmp_path / "levels"))
        assert code == 0
        (digest,) = seed.key[1]
        assert os.listdir(tmp_path / "levels") == [
            f"ext-custom_{digest}-n3.json"]

    def test_prune_flag_accepted(self, seed_record, capsys):
        code, stdout, _ = run(capsys, "extend", "--in", str(seed_record),
                              "--steps", "1", "--prune")
        assert code == 0
        assert stdout.strip() == "n2=3 alpha2=5"

    def test_prune_keeps_the_base_nodes(self, tmp_path, capsys):
        # the Laguerre 3-node extension of Gauss-1 gives the base node 1.0
        # a weight of 9e-14; pruning it would leave Gauss-2, which does not
        # nest the base, so the chain keeps the unpruned 3 and 7 nodes
        seed = tmp_path / "g1.json"
        run(capsys, "gauss", "--family", "laguerre", "--n", "1",
            "--out", str(seed))
        code, stdout, _ = run(capsys, "extend", "--in", str(seed),
                              "--steps", "2", "--prune",
                              "--out", str(tmp_path))
        assert code == 0
        assert stdout.strip().split("\n") == ["n2=3 alpha2=3",
                                              "n2=7 alpha2=8"]
        code, _, _ = run(capsys, "sparse-grid", "--family", "laguerre",
                         "--d", "2", "--k", "3", "--catalog", str(tmp_path))
        assert code == 0

    def test_prune_drops_a_new_node(self, tmp_path, capsys):
        # the 15-node extension of the x^1.5 e^-x Gauss-7 extension has a
        # new node of negligible weight; the pruned 14 still nest the 7
        seed = tmp_path / "g3.json"
        run(capsys, "gauss", "--family", "laguerre", "--params", "1.5",
            "--n", "3", "--out", str(seed))
        out = tmp_path / "levels"
        code, stdout, stderr = run(capsys, "extend", "--in", str(seed),
                                   "--steps", "2", "--prune",
                                   "--out", str(out))
        assert (code, stdout, stderr) == (
            0, "n2=7 alpha2=8\nn2=14 alpha2=18 pruned_from=15\n", "")
        rules = sorted((load(path).payload for path in out.iterdir()),
                       key=lambda rule: rule.n)
        assert [rule.n for rule in rules] == [7, 14]
        assert rules[1].exactness_degree == 18
        assert np.isin(rules[0].nodes, rules[1].nodes).all()

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_below_one_is_usage_error(self, seed_record, tmp_path,
                                            capsys, steps):
        out = tmp_path / "levels"
        code, stdout, stderr = run(capsys, "extend", "--in", str(seed_record),
                                   "--steps", steps, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert "--steps" in stderr
        assert not out.exists()

    def test_corrupt_input_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, stderr = run(capsys, "extend", "--in", str(bad))
        assert code == 3
        assert "bad.json" in stderr


class TestFamilyFlag:
    @pytest.mark.parametrize("flags, want", [
        (["--family", "chebyshev"], chebyshev1()),
        (["--family", "chebyshev1"], chebyshev1()),
        (["--family", "laguerre"], generalized_laguerre(0.0)),
        (["--family", "generalized_laguerre"], generalized_laguerre(0.0)),
        (["--family", "laguerre", "--params", "0.5"],
         generalized_laguerre(0.5)),
        (["--family", "hermite-rho1"], generalized_hermite(1.0)),
        (["--family", "legendre", "--params", "1"],
         "legendre takes no parameters"),
        (["--family", "chebyshev", "--params", "1"],
         "chebyshev takes no parameters"),
        (["--family", "jacobi", "--params", "0.5"],
         "jacobi needs --params alpha,beta"),
        (["--family", "hermite", "--params", "1,2"],
         "hermite takes at most one rho parameter"),
        (["--family", "laguerre", "--params", "1,2"],
         "laguerre takes at most one rho parameter"),
        (["--family", "hermite-rho1", "--params", "1"],
         "give either a -rho suffix or --params, not both"),
        (["--family", "laguerre-rhox"], "bad family suffix -rho'x'"),
        (["--family", "jacobi", "--params", "0,a"], "bad --params '0,a'"),
        (["--family", "legendre", "--n1", "2,x"], "bad --n1 '2,x'"),
    ], ids=["chebyshev", "chebyshev1", "laguerre", "generalized_laguerre",
            "laguerre-params", "hermite-rho1", "legendre-params",
            "chebyshev-params", "jacobi-one-param", "hermite-two-params",
            "laguerre-two-params", "rho-and-params", "bad-rho",
            "bad-params", "bad-n1"])
    def test_spellings_and_refusals(self, tmp_path, capsys, flags, want):
        # a spelling builds its factory's family, which the Gauss-1 record
        # stores; a refusal is a usage error naming what is wrong
        out = tmp_path / "rule.json"
        argv = (["generate", *flags] if "--n1" in flags
                else ["gauss", *flags, "--n", "1"])
        code, stdout, stderr = run(capsys, *argv, "--out", str(out))
        if isinstance(want, str):
            assert (code, stdout) == (1, "")
            assert stderr.startswith(f"error: {want}")
            assert not out.exists()
        else:
            assert code == 0
            assert load(out).family == want


class TestGauss:
    def test_summary_and_record(self, tmp_path, capsys):
        out = tmp_path / "g5.json"
        code, stdout, _ = run(capsys, "gauss", "--family", "legendre",
                              "--n", "5", "--out", str(out))
        assert code == 0
        assert stdout.startswith("n=5 alpha=9 residual=")
        assert load(out).payload.n == 5

    def test_bad_size(self, capsys):
        code, _, _ = run(capsys, "gauss", "--family", "legendre", "--n", "0")
        assert code == 1

    def test_negative_first_param(self, tmp_path, capsys):
        # argparse alone takes "-0.5,0.5" for an option; the space form
        # must read like --params=-0.5,0.5.  Jacobi(-1/2, 1/2) is the
        # Chebyshev weight of the third kind, whose n-point Gauss nodes
        # are cos((k - 1/2) pi / (n + 1/2))
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        code, stdout, _ = run(capsys, "gauss", "--family", "jacobi",
                              "--params", "-0.5,0.5", "--n", "3",
                              "--out", str(spaced))
        assert code == 0
        assert run(capsys, "gauss", "--family", "jacobi",
                   "--params=-0.5,0.5", "--n", "3",
                   "--out", str(joined)) == (0, stdout, "")
        rule = load(spaced).payload
        assert rule.family.params == (-0.5, 0.5)
        np.testing.assert_array_equal(rule.nodes, load(joined).payload.nodes)
        chebyshev3 = np.cos((np.arange(3, 0, -1) - 0.5) * np.pi / 3.5)
        np.testing.assert_allclose(rule.nodes, chebyshev3, rtol=0,
                                   atol=1e-14)

    def test_missing_params_value_is_still_refused(self, capsys):
        code, _, err = run(capsys, "gauss", "--family", "jacobi",
                           "--params", "--n", "3")
        assert code == 1
        assert err == "error: argument --params: expected one argument\n"


class TestVerify:
    def test_certified_pair_passes(self, pair_record, capsys):
        code, stdout, _ = run(capsys, "verify", "--in", str(pair_record))
        assert code == 0
        assert stdout.count("PASS") == 2
        assert "coarse" in stdout and "fine" in stdout

    def test_perturbed_weight_fails_with_worst_moment(self, tmp_path,
                                                      capsys):
        path = tmp_path / "g3.json"
        run(capsys, "gauss", "--family", "legendre", "--n", "3",
            "--out", str(path))
        doc = json.loads(path.read_text())
        doc["data"]["weights"][0] += 1e-6
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "verify", "--in", str(path))
        assert code == 5
        assert "FAIL" in stdout
        assert "<- worst" in stdout

    @pytest.mark.parametrize("subset", [[7], [-2]])
    def test_subset_map_outside_fine_nodes(self, tmp_path, capsys, subset):
        path = tmp_path / "pair.json"
        run(capsys, "generate", "--family", "legendre", "--n1", "1",
            "--out", str(path))
        doc = json.loads(path.read_text())
        doc["data"]["subset_map"] = subset
        path.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "verify", "--in", str(path))
        assert code == 3
        assert "subset_map" in stderr

    def test_non_finite_family_parameter_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "g3.json"
        run(capsys, "gauss", "--family", "hermite", "--params", "1",
            "--n", "3", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["family"]["params"] = [math.nan]  # written as JSON NaN
        path.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "verify", "--in", str(path))
        assert code == 3
        assert "finite" in stderr

    def test_infinite_degree_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        run(capsys, "generate", "--family", "legendre", "--n1", "1",
            "--out", str(path))
        doc = json.loads(path.read_text())
        doc["data"]["alpha1"] = math.inf  # written as JSON Infinity
        path.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "verify", "--in", str(path))
        assert code == 3
        assert "malformed record" in stderr

    def test_degree_beyond_node_bound_is_io_error(self, tmp_path, capsys,
                                                  monkeypatch):
        path = tmp_path / "g3.json"
        run(capsys, "gauss", "--family", "legendre", "--n", "3",
            "--out", str(path))
        doc = json.loads(path.read_text())
        doc["data"]["alpha2"] = 200000
        path.write_text(json.dumps(doc))
        real = rulestore.recurrence_coefficients

        def bounded(family, n_coeffs):
            # a 3-node rule is exact through degree 5 at most
            assert n_coeffs <= 5, f"table built through degree {n_coeffs}"
            return real(family, n_coeffs)

        for owner in (rulestore, cli):
            monkeypatch.setattr(owner, "recurrence_coefficients", bounded)
        code, stdout, stderr = run(capsys, "verify", "--in", str(path))
        assert (code, stdout) == (3, "")
        assert len(stderr.splitlines()) == 1
        assert "200000" in stderr

    @pytest.mark.parametrize("field, value, message", [
        ("schema_version", 2, "unknown schema_version 2"),
        ("kind", "table", "unknown kind 'table'"),
    ])
    def test_schema_error_names_the_file_once(self, seed_record, capsys,
                                              field, value, message):
        doc = json.loads(seed_record.read_text())
        doc[field] = value
        seed_record.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "verify", "--in", str(seed_record))
        assert (code, stdout) == (3, "")
        assert stderr == f"error: {seed_record}: {message}\n"

    def test_certification_must_match_the_data(self, seed_record, capsys):
        doc = json.loads(seed_record.read_text())
        doc["certification"]["alpha"] = 99
        seed_record.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "verify", "--in", str(seed_record))
        assert (code, stdout) == (3, "")
        assert stderr == (f"error: {seed_record}: certification claims "
                          f"degree 99 and residual 0.0, the data 1 and "
                          f"0.0\n")

    def test_alpha_override_is_not_bounded(self, tmp_path, capsys):
        path = tmp_path / "g3.json"
        run(capsys, "gauss", "--family", "legendre", "--n", "3",
            "--out", str(path))
        code, stdout, _ = run(capsys, "verify", "--in", str(path),
                              "--alpha", "9")
        assert code == 5
        assert re.search(r"^  9 ", stdout, re.MULTILINE)

    def test_circle_theorem_legendre(self, tmp_path, capsys):
        path = tmp_path / "g12.json"
        run(capsys, "gauss", "--family", "legendre", "--n", "12",
            "--out", str(path))
        code, stdout, _ = run(capsys, "verify", "--in", str(path),
                              "--circle-theorem")
        assert code == 0
        assert "circle_theorem_deviation=" in stdout

    def test_circle_theorem_hermite_unsupported(self, tmp_path, capsys):
        path = tmp_path / "h4.json"
        run(capsys, "gauss", "--family", "hermite", "--n", "4",
            "--out", str(path))
        code, _, stderr = run(capsys, "verify", "--in", str(path),
                              "--circle-theorem")
        assert code == 1
        assert "circle theorem" in stderr


class TestSparseGrid:
    def test_nested_legendre_counts(self, tmp_path, capsys):
        code, stdout, _ = run(
            capsys, "sparse-grid", "--family", "legendre", "--d", "4",
            "--k", "6", "--schedule", "nested", "--autogen",
            "--catalog", str(tmp_path / "cat"),
            "--out", str(tmp_path / "grid"))
        assert code == 0
        assert stdout.strip() == "385"
        doc = json.loads((tmp_path / "grid.json").read_text())
        assert doc["d"] == 4 and doc["k"] == 6
        assert len(doc["weights"]) == 385
        csv = (tmp_path / "grid.csv").read_text().strip().split("\n")
        assert csv[0] == "x1,x2,x3,x4,weight"
        assert len(csv) == 386

    def test_nested_hermite_rho1_example(self, tmp_path, capsys):
        code, stdout, stderr = run(
            capsys, "sparse-grid", "--family", "hermite-rho1", "--d", "4",
            "--k", "6", "--schedule", "nested", "--autogen",
            "--catalog", str(tmp_path / "cat"))
        assert code == 0
        assert stdout.strip() == "385"
        # the level family's shortfall warning prints as a CLI line
        assert stderr == (
            "warning: level 6 rule only certifies degree 9, below the 2i-1 "
            "convention (11); total-degree exactness will degrade\n")

    def test_gauss_d10_example(self, capsys):
        code, stdout, _ = run(capsys, "sparse-grid", "--family", "legendre",
                              "--d", "10", "--k", "4", "--schedule", "gauss")
        assert code == 0
        assert stdout.strip() == "1581"

    @pytest.mark.parametrize("d, k", [("0", "3"), ("3", "0")])
    def test_d_or_k_below_one_is_usage_error(self, capsys, d, k):
        assert run(capsys, "sparse-grid", "--family", "legendre", "--d", d,
                   "--k", k, "--schedule", "gauss") == (
            1, "", "error: --d and --k must be at least 1\n")

    def test_missing_catalog_exit4(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "sparse-grid", "--family", "legendre",
                              "--d", "2", "--k", "4", "--schedule", "nested",
                              "--catalog", str(tmp_path / "absent"))
        assert code == 4
        assert "--autogen" in stderr

    def test_catalog_reuse_without_autogen(self, tmp_path, capsys):
        cat = tmp_path / "cat"
        code, first, _ = run(capsys, "sparse-grid", "--family", "legendre",
                             "--d", "3", "--k", "4", "--schedule", "nested",
                             "--autogen", "--catalog", str(cat))
        assert code == 0
        code, second, _ = run(capsys, "sparse-grid", "--family", "legendre",
                              "--d", "3", "--k", "4", "--schedule", "nested",
                              "--catalog", str(cat))
        assert code == 0
        assert first == second

    def test_catalog_keeps_each_family_of_one_kind(self, tmp_path, capsys):
        # records named by kind alone would let the jacobi(1, 1) chain
        # overwrite the jacobi(0, 0.3) one, and the last call find no chain
        cat = tmp_path / "cat"
        grid = ("sparse-grid", "--family", "jacobi", "--d", "2", "--k", "3",
                "--catalog", str(cat))
        first = run(capsys, *grid, "--params", "0,0.3", "--autogen")
        assert first[0] == 0
        code, _, _ = run(capsys, *grid, "--params", "1,1", "--autogen")
        assert code == 0
        assert run(capsys, *grid, "--params", "0,0.3") == first
        assert load(cat / "ext-jacobi_0.0_0.3-n3.json").family.params \
            == (0.0, 0.3)
        assert load(cat / "gauss-jacobi_1.0_1.0-n1.json").family.params \
            == (1.0, 1.0)

    def test_catalog_skips_rules_outside_the_chain(self, tmp_path, capsys):
        cat = tmp_path / "cat"
        grid = ("sparse-grid", "--family", "legendre", "--d", "3", "--k", "4",
                "--schedule", "nested", "--catalog", str(cat))
        code, stdout, _ = run(capsys, *grid, "--autogen")
        assert (code, stdout.strip()) == (0, "39")
        # the 2-point Gauss rule does not embed the 1-point one
        run(capsys, "gauss", "--family", "legendre", "--n", "2",
            "--out", str(cat / "gauss-legendre-n2.json"))
        code, stdout, _ = run(capsys, *grid)
        assert (code, stdout.strip()) == (0, "39")

    def test_catalog_skips_a_record_that_fails_verification(self, tmp_path,
                                                            capsys):
        cat = tmp_path / "cat"
        grid = ("sparse-grid", "--family", "legendre", "--d", "2", "--k", "4",
                "--catalog", str(cat))
        code, _, _ = run(capsys, *grid, "--autogen")
        assert code == 0
        # move a node that the 3-node level lacks: the 7-node rule still
        # embeds that level, but its certificate no longer holds
        path = cat / "ext-legendre-n7.json"
        doc = json.loads(path.read_text())
        inner = json.loads((cat / "ext-legendre-n3.json").read_text())
        nodes = doc["data"]["nodes"]
        new = [x for x in nodes if x not in inner["data"]["nodes"]]
        nodes[nodes.index(new[0])] += 1e-3
        path.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, *grid)
        assert code == 4
        # the skip warning prints as a CLI line, not in Python's format
        warning, error = stderr.splitlines()
        assert warning.startswith(f"warning: skipping {path}: stored residual")
        assert "UserWarning" not in stderr
        assert error.startswith("error: catalog provides a chain of 2 rules")

    def test_autogen_records_carry_iterations(self, tmp_path, capsys,
                                              monkeypatch):
        real = cli.extend_patterson
        counts = {}

        def counted(rule, table):
            extension, state = real(rule, table)
            counts[extension.n] = state.iteration
            return extension, state

        monkeypatch.setattr(cli, "extend_patterson", counted)
        cat = tmp_path / "cat"
        code, _, _ = run(capsys, "sparse-grid", "--family", "hermite-rho1",
                         "--d", "2", "--k", "4", "--autogen",
                         "--catalog", str(cat))
        assert code == 0
        name = "generalized_hermite_1.0"
        assert load(cat / f"gauss-{name}-n1.json").provenance.iterations == 0
        # the 3 -> 7 step steps at the degree it concedes, so a count the
        # CLI dropped would read 0 here
        assert counts[7] > 0
        for n in (3, 7):
            record = load(cat / f"ext-{name}-n{n}.json")
            assert record.mode == "patterson"
            assert record.provenance.iterations == counts[n]

    def test_autogen_writes_nothing_when_a_step_fails(self, tmp_path, capsys,
                                                       monkeypatch):
        real = cli.extend_patterson
        calls = []

        def second_step_fails(rule, table):
            calls.append(rule.n)
            if len(calls) == 2:
                raise ConvergenceError("no degree certified")
            return real(rule, table)

        monkeypatch.setattr(cli, "extend_patterson", second_step_fails)
        cat = tmp_path / "cat"
        code, _, stderr = run(capsys, "sparse-grid", "--family", "legendre",
                              "--d", "2", "--k", "4", "--autogen",
                              "--catalog", str(cat))
        assert (code, calls) == (2, [1, 3])
        assert "no degree certified" in stderr
        assert not cat.exists()

    def test_env_var_default_catalog(self, tmp_path, capsys, monkeypatch):
        cat = tmp_path / "envcat"
        monkeypatch.setenv("NESTQUAD_CATALOG", str(cat))
        code, stdout, _ = run(capsys, "sparse-grid", "--family", "legendre",
                              "--d", "2", "--k", "3", "--schedule", "nested",
                              "--autogen")
        assert code == 0
        assert (cat / "gauss-legendre-n1.json").exists()

    def test_env_var_is_read_when_the_command_runs(self, tmp_path, capsys,
                                                   monkeypatch):
        # the parser is built once per process, so a catalog set in the
        # environment after the first main() call still counts
        monkeypatch.delenv("NESTQUAD_CATALOG", raising=False)
        argv = ["sparse-grid", "--family", "legendre", "--d", "2", "--k",
                "3"]
        code, _, stderr = run(capsys, *argv)
        assert code == 4 and "no catalog directory" in stderr
        cat = tmp_path / "envcat"
        monkeypatch.setenv("NESTQUAD_CATALOG", str(cat))
        code, stdout, _ = run(capsys, *argv, "--autogen")
        assert (code, stdout) == (0, "9\n")
        assert (cat / "gauss-legendre-n1.json").exists()
        code, stdout, _ = run(capsys, *argv)
        assert (code, stdout) == (0, "9\n")
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("out", ["grids/", "grids/.json", "grids/.csv",
                                     ".json"])
    def test_out_without_a_basename_is_refused(self, tmp_path, capsys,
                                               monkeypatch, out):
        # "grids/" would write the hidden files grids/.json and grids/.csv
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grids").mkdir()
        code, stdout, stderr = run(capsys, "sparse-grid", "--family",
                                   "legendre", "--d", "2", "--k", "3",
                                   "--schedule", "gauss", "--out", out)
        assert (code, stdout) == (1, "")
        assert "names no file" in stderr
        assert sorted(os.listdir(tmp_path)) == ["grids"]
        assert os.listdir(tmp_path / "grids") == []

    def test_d1_equals_univariate_level(self, tmp_path, capsys):
        cat = tmp_path / "cat"
        code, stdout, _ = run(capsys, "sparse-grid", "--family", "legendre",
                              "--d", "1", "--k", "3", "--schedule", "nested",
                              "--autogen", "--catalog", str(cat),
                              "--out", str(tmp_path / "g1d"))
        assert code == 0
        assert stdout.strip() == "3"
        doc = json.loads((tmp_path / "g1d.json").read_text())
        level = load(cat / "ext-legendre-n3.json").payload
        assert np.array_equal(np.array(doc["nodes"])[:, 0], level.nodes)
        assert np.array_equal(np.array(doc["weights"]), level.weights)


class TestIntegrate:
    @pytest.fixture()
    def grid_path(self, tmp_path, capsys):
        path = tmp_path / "grid"
        code, _, _ = run(capsys, "sparse-grid", "--family", "legendre",
                         "--d", "3", "--k", "3", "--schedule", "nested",
                         "--autogen", "--catalog", str(tmp_path / "cat"),
                         "--out", str(path))
        assert code == 0
        return tmp_path / "grid.json"

    @staticmethod
    def _value(stdout, key):
        match = re.search(rf"{key}=(\S+)", stdout)
        assert match, f"{key} missing in {stdout!r}"
        return float(match.group(1))

    def test_constant(self, grid_path, capsys):
        code, stdout, _ = run(capsys, "integrate", "--grid", str(grid_path),
                              "--function", "constant")
        assert code == 0
        assert self._value(stdout, "estimate") == pytest.approx(1.0,
                                                                abs=1e-10)
        assert self._value(stdout, "e_mu") <= 1e-10

    def test_monomial_within_exactness(self, grid_path, capsys):
        code, stdout, _ = run(capsys, "integrate", "--grid", str(grid_path),
                              "--function", "monomial",
                              "--params", "2,2,0")
        assert code == 0
        assert self._value(stdout, "estimate") == pytest.approx(
            1.0 / 9.0, abs=1e-10)
        assert self._value(stdout, "e_mu") <= 1e-9

    def test_product_exponential_reference(self, grid_path, capsys):
        code, stdout, _ = run(capsys, "integrate", "--grid", str(grid_path),
                              "--function", "product-exponential",
                              "--params", "0.3,0.2,0.1")
        assert code == 0
        truth = math.prod(math.sinh(c) / c for c in (0.3, 0.2, 0.1))
        assert self._value(stdout, "estimate") == pytest.approx(truth,
                                                                rel=1e-5)

    def test_negative_first_coefficient(self, grid_path, capsys):
        code, stdout, _ = run(capsys, "integrate", "--grid", str(grid_path),
                              "--function", "product-exponential",
                              "--params", "-0.1,0.2,0.3")
        assert code == 0
        truth = math.prod(math.sinh(c) / c for c in (-0.1, 0.2, 0.3))
        assert self._value(stdout, "estimate") == pytest.approx(truth,
                                                                rel=1e-5)
        assert run(capsys, "integrate", "--grid", str(grid_path),
                   "--function", "product-exponential",
                   "--params=-0.1,0.2,0.3") == (0, stdout, "")

    def test_genz_oscillatory(self, grid_path, capsys):
        code, stdout, _ = run(capsys, "integrate", "--grid", str(grid_path),
                              "--function", "genz-oscillatory",
                              "--params", "0.1,0.5,0.5,0.5")
        assert code == 0
        truth = (math.cos(2 * math.pi * 0.1)
                 * (math.sin(0.5) / 0.5) ** 3)
        assert self._value(stdout, "estimate") == pytest.approx(truth,
                                                                rel=1e-4)

    def test_nested_vs_gauss_same_integrand(self, tmp_path, capsys):
        nested = tmp_path / "ng"
        gauss = tmp_path / "gg"
        _, n_count, _ = run(capsys, "sparse-grid", "--family", "legendre",
                            "--d", "2", "--k", "4", "--schedule", "nested",
                            "--autogen", "--catalog", str(tmp_path / "cat"),
                            "--out", str(nested))
        _, g_count, _ = run(capsys, "sparse-grid", "--family", "legendre",
                            "--d", "2", "--k", "4", "--schedule", "gauss",
                            "--out", str(gauss))
        assert int(n_count.strip()) < int(g_count.strip())
        errors = {}
        for label, path in (("nested", nested), ("gauss", gauss)):
            code, stdout, _ = run(capsys, "integrate",
                                  "--grid", str(path) + ".json",
                                  "--function", "product-exponential",
                                  "--params", "0.4,0.3")
            assert code == 0
            errors[label] = self._value(stdout, "e_mu")
        assert errors["nested"] <= 1e-4 and errors["gauss"] <= 1e-4

    def test_pair_embedded_error(self, pair_record, capsys):
        code, stdout, _ = run(capsys, "integrate", "--rule",
                              str(pair_record), "--function",
                              "product-exponential", "--params", "0.5")
        assert code == 0
        assert "coarse=" in stdout and "fine=" in stdout
        assert self._value(stdout, "e_I") < 1e-2
        assert self._value(stdout, "e_mu") < 1e-6

    def test_zero_truth_grid_gives_absolute_error(self, grid_path, capsys):
        code, stdout, _ = run(capsys, "integrate", "--grid", str(grid_path),
                              "--function", "monomial",
                              "--params", "1,0,0")
        assert code == 0
        match = re.search(r"e_mu=abs:(\S+)", stdout)
        assert match and float(match.group(1)) <= 1e-15

    def test_zero_truth_rule_gives_absolute_error(self, pair_record,
                                                  capsys):
        code, stdout, _ = run(capsys, "integrate", "--rule",
                              str(pair_record), "--function", "monomial",
                              "--params", "1")
        assert code == 0
        match = re.search(r"e_mu=abs:(\S+)", stdout)
        assert match and float(match.group(1)) <= 1e-15

    def test_unknown_function(self, grid_path, capsys):
        code, _, stderr = run(capsys, "integrate", "--grid", str(grid_path),
                              "--function", "mystery")
        assert code == 1
        assert "unknown function" in stderr

    def test_requires_exactly_one_source(self, grid_path, pair_record,
                                         capsys):
        code, _, _ = run(capsys, "integrate", "--function", "constant")
        assert code == 1
        code, _, _ = run(capsys, "integrate", "--grid", str(grid_path),
                         "--rule", str(pair_record), "--function",
                         "constant")
        assert code == 1

    @pytest.mark.parametrize("name, params, bad", [
        ("constant", "nan", "nan"),
        ("monomial", "inf,1,1", "inf"),
        ("monomial", "nan,1,1", "nan"),
        ("product-exponential", "0.3,-inf,0.1", "-inf"),
        ("genz-oscillatory", "inf,0.5,0.5,0.5", "inf"),
    ])
    def test_non_finite_param_is_usage_error(self, grid_path, capsys, name,
                                             params, bad):
        code, stdout, stderr = run(capsys, "integrate", "--grid",
                                   str(grid_path), "--function", name,
                                   "--params", params)
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: --params value {bad} is not finite\n"

    @pytest.mark.parametrize("name, params, message", [
        ("product-exponential", "0.3,0.2",
         "product-exponential needs 3 coefficients"),
        ("genz-oscillatory", "0.1,0.5,0.5",
         "genz-oscillatory needs u plus 3 coefficients"),
    ])
    def test_coefficient_count_mismatch(self, grid_path, capsys, name,
                                        params, message):
        assert run(capsys, "integrate", "--grid", str(grid_path),
                   "--function", name, "--params", params) == (
            1, "", f"error: {message}\n")

    def test_non_uniform_grid_prints_no_e_mu(self, tmp_path, capsys):
        # the reference values are the uniform weight's; only constant's
        # holds for every weight
        path = tmp_path / "hermite"
        run(capsys, "sparse-grid", "--family", "hermite", "--d", "2",
            "--k", "3", "--schedule", "gauss", "--out", str(path))
        grid = str(tmp_path / "hermite.json")
        assert run(capsys, "integrate", "--grid", grid, "--function",
                   "product-exponential", "--params", "0.3,0.2") == (
            0, "estimate=1.033030588596e+00\n", "")
        code, stdout, _ = run(capsys, "integrate", "--grid", grid,
                              "--function", "constant")
        assert code == 0 and " e_mu=" in stdout

    def test_rule_record_is_not_a_pair(self, seed_record, capsys):
        assert run(capsys, "integrate", "--rule", str(seed_record),
                   "--function", "constant") == (
            1, "", "error: --rule expects a nested pair record\n")

    def test_param_count_mismatch(self, grid_path, capsys):
        code, _, stderr = run(capsys, "integrate", "--grid", str(grid_path),
                              "--function", "monomial", "--params", "2,2")
        assert code == 1
        assert "3" in stderr

    @pytest.mark.parametrize("how", ["weight-count", "nan-weight",
                                     "inf-node", "flat-nodes",
                                     "null-family-ref"])
    def test_weight_count_mismatch_is_io_error(self, grid_path, capsys, how):
        doc = json.loads(grid_path.read_text())
        if how == "weight-count":
            doc["weights"].pop()
        elif how == "nan-weight":
            doc["weights"][0] = math.nan  # written as JSON NaN
        elif how == "inf-node":
            doc["nodes"][0][0] = math.inf
        elif how == "null-family-ref":
            doc["family_ref"] = None
        else:
            doc["nodes"] = [x for row in doc["nodes"] for x in row]
        grid_path.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "integrate", "--grid",
                                   str(grid_path), "--function", "constant")
        assert code == 3
        assert stdout == ""
        assert stderr.startswith(f"error: {grid_path}: malformed grid (")
        assert stderr.count(str(grid_path)) == 1

    # the grid is 3-D, and int() would truncate 3.7 to a valid d
    @pytest.mark.parametrize("d", [math.inf, 3.7], ids=["inf", "3.7"])
    def test_infinite_dimension_is_io_error(self, grid_path, capsys, d):
        doc = json.loads(grid_path.read_text())
        doc["d"] = d
        grid_path.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "integrate", "--grid",
                                   str(grid_path), "--function", "constant")
        assert code == 3
        assert stdout == ""
        assert "malformed grid" in stderr

    def test_overflowing_integrand_names_node(self, grid_path, capsys):
        coeffs = np.array([1000.0, 0.0, 0.0])
        nodes = np.array(json.loads(grid_path.read_text())["nodes"])
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.exp(nodes @ coeffs))
        assert not finite.all()
        bad = nodes[np.flatnonzero(~finite)[0]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(
                capsys, "integrate", "--grid", str(grid_path),
                "--function", "product-exponential",
                "--params", "1000,0,0")
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert code == 1
        assert stdout == ""
        assert f"integrand returned inf at {bad.tolist()}" in stderr

    @pytest.mark.parametrize("name, params, rule_params", [
        ("constant", None, None),
        ("monomial", "2,1,4", "4"),
        ("product-exponential", "0.3,-0.2,0.1", "0.5"),
        ("genz-oscillatory", "0.1,0.3,0.2,-0.1", "0.1,0.3"),
    ])
    def test_builtin_batch_matches_per_row(self, grid_path, pair_record,
                                           capsys, name, params,
                                           rule_params):
        doc = json.loads(grid_path.read_text())
        pair = load(pair_record).payload
        cases = [("--grid", grid_path, params, 3,
                  [("estimate", np.array(doc["nodes"]),
                    np.array(doc["weights"]))]),
                 ("--rule", pair_record, rule_params, 1,
                  [(label, rule.nodes[:, None], rule.weights)
                   for label, rule in (("coarse", pair.coarse),
                                       ("fine", pair.fine))])]
        for flag, path, fn_params, d, parts in cases:
            argv = ["integrate", flag, str(path), "--function", name]
            if fn_params is not None:
                argv += ["--params", fn_params]
            code, stdout, _ = run(capsys, *argv)
            assert code == 0
            f, _ = cli._resolve_function(name, fn_params, d)
            for key, nodes, weights in parts:
                batch = f(nodes)
                assert batch.shape == weights.shape
                rows = np.array([float(f(x)) for x in nodes])
                np.testing.assert_allclose(batch, rows, rtol=1e-14, atol=0)
                per_row = math.fsum((weights * rows).tolist())
                assert cli._weighted_sum(weights, cli._node_values(
                    nodes, f)) == pytest.approx(per_row, rel=1e-14,
                                                abs=1e-300)
                # the CLI prints 13 significant digits
                assert self._value(stdout, key) == pytest.approx(
                    per_row, rel=1e-12, abs=1e-300)

    @staticmethod
    def _count_calls(monkeypatch):
        """The shapes the built-in integrands are called on, from now on."""
        calls = []
        resolve = cli._resolve_function

        def counting(*args):
            f, truth = resolve(*args)

            def counted(x):
                calls.append(np.shape(x))
                return f(x)

            return counted, truth

        monkeypatch.setattr(cli, "_resolve_function", counting)
        return calls

    def test_builtin_is_called_once(self, grid_path, capsys, monkeypatch):
        calls = self._count_calls(monkeypatch)
        code, _, _ = run(capsys, "integrate", "--grid", str(grid_path),
                         "--function", "genz-oscillatory",
                         "--params", "0.1,0.3,0.2,0.1")
        assert code == 0
        nodes = json.loads(grid_path.read_text())["nodes"]
        assert calls == [(len(nodes), 3)]

    def test_rule_integrand_is_called_once(self, pair_record, capsys,
                                           monkeypatch):
        # the coarse values are read off the fine ones at subset_map
        calls = self._count_calls(monkeypatch)
        code, _, _ = run(capsys, "integrate", "--rule", str(pair_record),
                         "--function", "product-exponential",
                         "--params", "0.3")
        assert code == 0
        assert calls == [(load(pair_record).payload.n2, 1)]

    def test_overflowing_rule_integrand_names_coarse_node(self, tmp_path,
                                                         capsys):
        path = tmp_path / "pair3.json"
        code, _, _ = run(capsys, "generate", "--family", "legendre",
                         "--n1", "3", "--out", str(path))
        assert code == 0
        coarse = load(path).payload.coarse.nodes
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.exp(1000.0 * coarse))
        assert not finite.all()
        bad = coarse[np.flatnonzero(~finite)[0]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(
                capsys, "integrate", "--rule", str(path),
                "--function", "product-exponential", "--params", "1000")
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert code == 1
        assert stdout == ""
        assert f"integrand returned inf at {[float(bad)]}" in stderr


# the integer fields of a record, as (block, key); a subset_map entry
# stands for the list
_INTEGER_FIELDS = {
    "rule": [("data", "n2"), ("data", "alpha2"), ("certification", "alpha"),
             ("provenance", "iterations")],
    "pair": [("data", "n1"), ("data", "n2"), ("data", "subset_map"),
             ("data", "alpha1"), ("data", "alpha2"),
             ("certification", "alpha"), ("provenance", "iterations")],
}
_DATA_KEYS = {
    "rule": ["mode", "n2", "nodes", "weights", "alpha2", "residual_norm"],
    "pair": ["mode", "n1", "n2", "nodes", "weights", "subset_map", "alpha1",
             "alpha2", "residual_norm"],
}


class TestMalformedRecord:
    """Malformed record data fails the same way for every reader."""

    @staticmethod
    def _record(tmp_path, capsys, kind):
        path = tmp_path / "cat" / f"{kind}.json"
        path.parent.mkdir()
        if kind == "rule":
            run(capsys, "gauss", "--family", "legendre", "--n", "3",
                "--out", str(path))
        else:
            run(capsys, "generate", "--family", "legendre", "--n1", "1",
                "--out", str(path))
        return path

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, keys in _DATA_KEYS.items() for key in keys])
    def test_missing_data_key_is_schema_error(self, tmp_path, capsys, kind,
                                              key):
        path = self._record(tmp_path, capsys, kind)
        doc = json.loads(path.read_text())
        del doc["data"][key]
        path.write_text(json.dumps(doc))
        for verify in (True, False):
            with pytest.raises(SchemaError) as info:
                load(path, verify=verify)
            message = str(info.value)
            assert message.startswith(f"{path}: malformed record (")
            assert message.count(str(path)) == 1
        with pytest.warns(UserWarning) as caught:
            assert len(catalog_scan(path.parent)) == 0
        assert [str(w.message) for w in caught] == [f"skipping {message}"]
        for argv in (["verify"], ["export", "--out", str(tmp_path / "x.csv")]):
            code, stdout, stderr = run(capsys, *argv, "--in", str(path))
            assert (code, stdout, stderr) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("fraction", [0.7, 0.0])
    @pytest.mark.parametrize("kind, block, key", [
        (kind, *field) for kind, fields in _INTEGER_FIELDS.items()
        for field in fields])
    def test_non_integer_is_schema_error(self, tmp_path, capsys, kind, block,
                                         key, fraction):
        # int() would truncate 5.7 to 5, and a float 5.0 is no JSON integer
        path = self._record(tmp_path, capsys, kind)
        doc = json.loads(path.read_text())
        if key == "subset_map":
            doc[block][key][0] += fraction
        else:
            doc[block][key] += fraction
        path.write_text(json.dumps(doc))
        for verify in (True, False):
            with pytest.raises(SchemaError) as info:
                load(path, verify=verify)
            message = str(info.value)
            assert message.startswith(f"{path}: malformed record (")
            assert "is not an integer" in message
            assert message.count(str(path)) == 1
        with pytest.warns(UserWarning) as caught:
            assert len(catalog_scan(path.parent)) == 0
        assert [str(w.message) for w in caught] == [f"skipping {message}"]
        code, stdout, stderr = run(capsys, "verify", "--in", str(path))
        assert (code, stdout, stderr) == (3, "", f"error: {message}\n")

    def test_custom_recurrence_short_of_the_degree(self, tmp_path, capsys):
        # a 3-node Gauss rule of a custom family whose stored recurrence is
        # then cut from 6 coefficients to 2, short of degree 5
        coeffs = recurrence_coefficients(legendre(), 5)
        family = custom_family(coeffs.a, coeffs.b, (-1.0, 1.0))
        path = tmp_path / "cat" / "g3.json"
        path.parent.mkdir()
        save(make_rule_record(
            gauss_rule(recurrence_coefficients(family, 5), 3)), path)
        doc = json.loads(path.read_text())
        doc["family"]["a"] = doc["family"]["a"][:2]
        doc["family"]["b"] = doc["family"]["b"][:2]
        path.write_text(json.dumps(doc))
        message = (f"{path}: custom family provides 2 coefficients, "
                   f"degree 5 needs 6")
        for verify in (True, False):
            with pytest.raises(IntegrityError) as info:
                load(path, verify=verify)
            assert str(info.value) == message
        with pytest.warns(UserWarning) as caught:
            assert len(catalog_scan(path.parent)) == 0
        assert [str(w.message) for w in caught] == [f"skipping {message}"]
        for argv in (["verify"], ["export", "--out", str(tmp_path / "x.csv")]):
            code, stdout, stderr = run(capsys, *argv, "--in", str(path))
            assert (code, stdout, stderr) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind", ["rule", "pair"])
    def test_nested_node_list_is_schema_error(self, tmp_path, capsys, kind):
        path = self._record(tmp_path, capsys, kind)
        doc = json.loads(path.read_text())
        doc["data"]["nodes"] = [[x] for x in doc["data"]["nodes"]]
        path.write_text(json.dumps(doc))
        for verify in (True, False):
            with pytest.raises(SchemaError, match="shapes are inconsistent"):
                load(path, verify=verify)
        code, stdout, stderr = run(capsys, "verify", "--in", str(path))
        assert (code, stdout) == (3, "")
        assert "shapes are inconsistent" in stderr

    @pytest.mark.parametrize("part", ["coarse", "fine"])
    def test_part_norm_falls_back_to_the_pair_norm(self, tmp_path, capsys,
                                                   part):
        path = self._record(tmp_path, capsys, "pair")
        doc = json.loads(path.read_text())
        del doc["data"][f"residual_norm_{part}"]
        path.write_text(json.dumps(doc))
        pair = load(path).payload
        rule = pair.coarse if part == "coarse" else pair.fine
        assert rule.residual_norm == doc["data"]["residual_norm"]


class TestExport:
    def test_pair_parts(self, pair_record, tmp_path, capsys):
        fine_csv = tmp_path / "fine.csv"
        coarse_csv = tmp_path / "coarse.csv"
        code, _, _ = run(capsys, "export", "--in", str(pair_record),
                         "--out", str(fine_csv))
        assert code == 0
        code, _, _ = run(capsys, "export", "--in", str(pair_record),
                         "--part", "coarse", "--out", str(coarse_csv))
        assert code == 0
        assert fine_csv.read_text().startswith("node,weight\n")
        assert len(fine_csv.read_text().strip().split("\n")) == 6
        assert len(coarse_csv.read_text().strip().split("\n")) == 3

    def test_rule_record(self, seed_record, tmp_path, capsys):
        csv = tmp_path / "g1.csv"
        assert run(capsys, "export", "--in", str(seed_record),
                   "--out", str(csv)) == (0, f"wrote 1 rows to {csv}\n", "")
        assert csv.read_text() == "node,weight\n0.0,1.0\n"

    def test_rule_has_no_coarse_part(self, tmp_path, capsys):
        path = tmp_path / "g2.json"
        run(capsys, "gauss", "--family", "legendre", "--n", "2",
            "--out", str(path))
        code, _, stderr = run(capsys, "export", "--in", str(path),
                              "--part", "coarse",
                              "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "no coarse part" in stderr


class TestTopLevel:
    def test_no_command(self, capsys):
        code, _, stderr = run(capsys)
        assert code == 1
        assert "no command" in stderr

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "generate", "--family", "legendre",
                         "--n1", "1", "--frobnicate")
        assert code == 1
