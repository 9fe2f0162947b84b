"""Record serialization, re-verification on load, and catalog scanning."""

import json
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nestquad.errors import IntegrityError, ParameterError, SchemaError
from nestquad.gauss import QuadratureRule, gauss_rule, verify_rule
from nestquad.nested_optimizer import (
    OptimizerConfig,
    extend_patterson,
    generate_nested,
)
from nestquad.orthopoly import (
    custom_family,
    generalized_hermite,
    generalized_laguerre,
    jacobi,
    legendre,
    recurrence_coefficients,
)
import nestquad
from nestquad import rulestore
from nestquad.rulestore import (
    Catalog,
    RuleRecord,
    catalog_scan,
    load,
    make_pair_record,
    make_rule_record,
    save,
    write_rule_csv,
)


@pytest.fixture(scope="module")
def leg_table():
    return recurrence_coefficients(legendre(), 40)


@pytest.fixture(scope="module")
def leg_pair(leg_table):
    pair, state = generate_nested(2, leg_table)
    return pair, state


class TestRoundTrip:
    def test_gauss_rule_bit_exact(self, leg_table, tmp_path):
        rule = gauss_rule(leg_table, 3)
        record = make_rule_record(rule, iterations=5)
        path = tmp_path / "gauss3.json"
        save(record, path)
        back = load(path)
        assert back.kind == "rule"
        assert back.mode == "gauss"
        assert back.family == legendre()
        assert np.array_equal(back.payload.nodes, rule.nodes)
        assert np.array_equal(back.payload.weights, rule.weights)
        assert back.payload.exactness_degree == rule.exactness_degree
        assert back.payload.residual_norm == rule.residual_norm
        assert back.certification == record.certification
        assert back.provenance == record.provenance
        assert back.key == record.key

    def test_gauss_rule_from_short_table(self, tmp_path):
        # capacity 5 holds the 5-point rule but not its degree-9 certificate
        rule = gauss_rule(recurrence_coefficients(legendre(), 5), 5)
        assert rule.residual_norm > 0.0
        path = tmp_path / "gauss5.json"
        save(make_rule_record(rule), path)
        assert load(path).payload.residual_norm == rule.residual_norm

    def test_pair_bit_exact(self, leg_pair, tmp_path):
        pair, state = leg_pair
        record = make_pair_record(pair, iterations=state.iteration)
        path = tmp_path / "pair.json"
        save(record, path)
        back = load(path)
        assert back.kind == "pair"
        assert back.mode == "kronrod"
        got = back.payload
        assert np.array_equal(got.fine.nodes, pair.fine.nodes)
        assert np.array_equal(got.fine.weights, pair.fine.weights)
        assert np.array_equal(got.coarse.nodes, pair.coarse.nodes)
        assert np.array_equal(got.coarse.weights, pair.coarse.weights)
        assert got.subset_map == pair.subset_map
        assert got.residual_norm == pair.residual_norm
        assert got.coarse.residual_norm == pair.coarse.residual_norm
        assert got.fine.residual_norm == pair.fine.residual_norm
        assert back.provenance.iterations == state.iteration

    def test_patterson_mode(self, leg_pair, leg_table, tmp_path):
        pair, _ = leg_pair
        extended, state = extend_patterson(pair.fine, leg_table)
        record = make_rule_record(extended, mode="patterson",
                                  iterations=state.iteration)
        path = tmp_path / "ext.json"
        save(record, path)
        back = load(path)
        assert back.mode == "patterson"
        assert np.array_equal(back.payload.nodes, extended.nodes)
        assert back.key == (("legendre"), (), None, extended.n, "patterson")

    def test_jacobi_params_preserved(self, tmp_path):
        fam = jacobi(0.0, 0.3)
        table = recurrence_coefficients(fam, 12)
        record = make_rule_record(gauss_rule(table, 4))
        path = tmp_path / "jac.json"
        save(record, path)
        assert load(path).family == fam

    def test_custom_family_with_unbounded_domain(self, tmp_path):
        base = recurrence_coefficients(generalized_laguerre(0.0), 12)
        fam = custom_family(base.a.tolist(), base.b.tolist(),
                            (0.0, math.inf))
        table = recurrence_coefficients(fam, 9)
        record = make_rule_record(gauss_rule(table, 4))
        path = tmp_path / "custom.json"
        save(record, path)
        back = load(path)
        assert back.family == fam
        assert back.family.domain.hi == math.inf
        assert np.array_equal(back.payload.nodes, record.payload.nodes)

    def test_file_shape(self, leg_table, tmp_path):
        record = make_rule_record(gauss_rule(leg_table, 2))
        path = tmp_path / "g2.json"
        save(record, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        doc = json.loads(text)
        assert set(doc) == {"schema_version", "kind", "family", "data",
                            "certification", "provenance"}
        assert doc["schema_version"] == 1
        assert doc["data"]["mode"] == "gauss"
        assert doc["provenance"]["generator"] == "nestquad"

    def test_provenance_carries_the_package_version(self, leg_table,
                                                    tmp_path):
        path = tmp_path / "g2.json"
        save(make_rule_record(gauss_rule(leg_table, 2)), path)
        assert load(path).provenance.version == nestquad.__version__
        assert nestquad.__version__ == "0.1.0"

    @pytest.mark.parametrize("family, floor", [
        (legendre(), 1e-6), (generalized_laguerre(0.0), 1e-13)],
        ids=["bounded", "unbounded"])
    def test_certification_block(self, tmp_path, family, floor):
        # degree and residual come from the payload, epsilon from the
        # config, the penalty floor and weight floor from the method
        rule = gauss_rule(recurrence_coefficients(family, 12), 3)
        path = tmp_path / "g3.json"
        save(make_rule_record(rule, config=OptimizerConfig(epsilon=1e-10)),
             path)
        assert json.loads(path.read_text())["certification"] == {
            "alpha": 5, "residual_norm": rule.residual_norm,
            "epsilon": 1e-10, "A": 1e3, "weight_floor": floor}

    def test_reverification_matches_within_2x(self, leg_pair, leg_table,
                                              tmp_path):
        pair, _ = leg_pair
        for rule in (gauss_rule(leg_table, 5), pair.coarse, pair.fine):
            fresh = verify_rule(rule, leg_table).norm
            assert fresh <= 2.0 * (rule.residual_norm + 1e-16)


class TestSaveValidation:
    def test_rejects_nan_weight(self, leg_table, tmp_path):
        rule = gauss_rule(leg_table, 3)
        broken = rule.weights.copy()
        broken[1] = math.nan
        object.__setattr__(rule, "weights", broken)
        record = make_rule_record(rule)
        path = tmp_path / "nan.json"
        with pytest.raises(ParameterError, match="non-finite"):
            save(record, path)
        assert not path.exists()

    def test_io_error_has_path_context_and_no_partial(self, leg_table,
                                                      tmp_path):
        record = make_rule_record(gauss_rule(leg_table, 2))
        decoy = tmp_path / "decoy.txt"
        decoy.write_text("x")
        target = decoy / "record.json"
        with pytest.raises(OSError, match="record.json"):
            save(record, target)
        assert os.listdir(tmp_path) == ["decoy.txt"]

    def test_record_kind_mode_validation(self, leg_table, leg_pair):
        rule_rec = make_rule_record(gauss_rule(leg_table, 2))
        pair, _ = leg_pair
        with pytest.raises(ParameterError):
            RuleRecord("kronrod", rule_rec.payload,
                       rule_rec.certification, rule_rec.provenance)
        with pytest.raises(ParameterError):
            RuleRecord("gauss", pair, rule_rec.certification,
                       rule_rec.provenance)
        with pytest.raises(ParameterError):
            RuleRecord("gauss", "table", rule_rec.certification,
                       rule_rec.provenance)


class TestLoadValidation:
    @pytest.fixture()
    def saved(self, leg_table, tmp_path):
        record = make_rule_record(gauss_rule(leg_table, 3))
        path = tmp_path / "g3.json"
        save(record, path)
        return path

    def _rewrite(self, path, mutate):
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc) + "\n")

    def test_unknown_schema_version(self, saved):
        self._rewrite(saved, lambda d: d.update(schema_version=99))
        with pytest.raises(SchemaError, match="schema_version"):
            load(saved)

    @pytest.mark.parametrize("field, value, message", [
        ("schema_version", 2, "unknown schema_version 2"),
        ("kind", "what", "unknown kind 'what'"),
        ("mode", "kronrod", "mode 'kronrod' invalid for kind 'rule'"),
    ])
    def test_schema_errors_are_not_wrapped_twice(self, saved, field, value,
                                                 message):
        def mutate(doc):
            (doc["data"] if field == "mode" else doc)[field] = value
        self._rewrite(saved, mutate)
        with pytest.raises(SchemaError) as info:
            load(saved)
        assert str(info.value) == f"{saved}: {message}"

    @pytest.mark.parametrize("field, value", [("alpha", 99),
                                              ("residual_norm", 1e-3)])
    @pytest.mark.parametrize("kind", ["rule", "pair"])
    def test_certification_must_match_the_data(self, leg_table, leg_pair,
                                               tmp_path, field, value, kind):
        record = (make_rule_record(gauss_rule(leg_table, 3))
                  if kind == "rule" else make_pair_record(leg_pair[0]))
        path = tmp_path / "record.json"
        save(record, path)
        self._rewrite(path,
                      lambda doc: doc["certification"].update({field: value}))
        for verify in (True, False):
            with pytest.raises(IntegrityError, match="certification claims"):
                load(path, verify=verify)
        with pytest.warns(UserWarning) as caught:
            assert len(catalog_scan(tmp_path)) == 0
        assert [str(w.message).split(":")[0] for w in caught] == [
            f"skipping {path}"]

    def test_corrupt_json(self, saved):
        saved.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load(saved)

    def test_bytes_that_are_not_utf8(self, saved):
        saved.write_bytes(b"\xff\xfe{")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load(saved)
        with pytest.warns(UserWarning, match=f"skipping {saved}: not valid"):
            assert len(catalog_scan(saved.parent)) == 0

    def test_missing_key(self, saved):
        self._rewrite(saved, lambda d: d.pop("certification"))
        with pytest.raises(SchemaError, match="malformed"):
            load(saved)

    def test_bad_kind_and_mode(self, saved):
        self._rewrite(saved, lambda d: d.update(kind="what"))
        with pytest.raises(SchemaError, match="kind"):
            load(saved)

    def test_mode_kind_mismatch(self, saved):
        self._rewrite(saved, lambda d: d["data"].update(mode="kronrod"))
        with pytest.raises(SchemaError, match="mode"):
            load(saved)

    @pytest.mark.parametrize("family, params", [
        (legendre(), [2.0]), (generalized_hermite(1.0), [math.nan]),
        (generalized_hermite(1.0), [math.inf]), (jacobi(0.0, 0.3), [0.0]),
    ], ids=lambda v: v.kind if hasattr(v, "kind") else str(v))
    def test_invalid_family_params(self, tmp_path, family, params):
        table = recurrence_coefficients(family, 5)
        path = tmp_path / "g3.json"
        save(make_rule_record(gauss_rule(table, 3)), path)
        self._rewrite(path, lambda d: d["family"].update(params=params))
        for verify in (True, False):
            with pytest.raises(SchemaError, match="malformed"):
                load(path, verify=verify)

    def test_gross_corruption_breaks_construction(self, saved):
        def mutate(doc):
            doc["data"]["weights"][0] += 1e-3
        self._rewrite(saved, mutate)
        with pytest.raises(IntegrityError):
            load(saved)

    def test_subtle_corruption_fails_verification(self, saved):
        def mutate(doc):
            doc["data"]["weights"][0] += 1e-6
            doc["data"]["weights"][2] -= 1e-6
        self._rewrite(saved, mutate)
        with pytest.raises(IntegrityError, match="fresh"):
            load(saved)

    @pytest.mark.parametrize("alpha2", [6, 200000])
    def test_degree_beyond_node_bound(self, saved, monkeypatch, alpha2):
        real = rulestore.recurrence_coefficients

        def bounded(family, n_coeffs):
            # a 3-node rule is exact through degree 5 at most
            assert n_coeffs <= 5, f"table built through degree {n_coeffs}"
            return real(family, n_coeffs)

        monkeypatch.setattr(rulestore, "recurrence_coefficients", bounded)
        self._rewrite(saved, lambda d: d["data"].update(alpha2=alpha2))
        for verify in (True, False):
            with pytest.raises(IntegrityError, match=f"degree {alpha2}"):
                load(saved, verify=verify)
        with pytest.warns(UserWarning) as caught:
            assert len(catalog_scan(saved.parent, verify=True)) == 0
        assert [str(w.message).split(":")[0] for w in caught] == [
            f"skipping {saved}"]

    def test_no_verify_skips_recheck(self, saved):
        def mutate(doc):
            doc["data"]["weights"][0] += 1e-6
            doc["data"]["weights"][2] -= 1e-6
        self._rewrite(saved, mutate)
        record = load(saved, verify=False)
        assert record.kind == "rule"

    def test_pair_size_mismatch(self, leg_pair, tmp_path):
        pair, _ = leg_pair
        path = tmp_path / "pair.json"
        save(make_pair_record(pair), path)
        doc = json.loads(path.read_text())
        doc["data"]["n1"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="inconsistent"):
            load(path)

    @pytest.mark.parametrize("subset", [[7], [-2]])
    def test_subset_map_outside_fine_nodes(self, leg_table, tmp_path, subset):
        pair, _ = generate_nested(1, leg_table)
        path = tmp_path / "pair.json"
        save(make_pair_record(pair), path)
        self._rewrite(path, lambda doc: doc["data"].update(subset_map=subset))
        with pytest.raises(SchemaError, match="subset_map"):
            load(path)
        with pytest.warns(UserWarning, match="skipping"):
            assert len(catalog_scan(tmp_path)) == 0


class TestOneRecheckRule:
    """``extend_patterson`` checks its base and ``load`` checks a record
    under the same rule: the fresh norm may be at most 10 (stored +
    1e-16)."""

    def test_understated_claim_is_refused_by_both(self, leg_table,
                                                  tmp_path):
        # a Gauss-3 rule nudged by 1e-13 whose claim is 20 times too small:
        # its fresh norm is below 10 epsilon but above the rule's bound
        gauss3 = gauss_rule(leg_table, 3)
        weights = gauss3.weights + np.array([1e-13, 0.0, -1e-13])
        fresh = verify_rule(
            QuadratureRule(legendre(), gauss3.nodes, weights, 5, 0.0),
            leg_table).norm
        stored = fresh / 20.0
        allowed = 10.0 * (stored + 1e-16)
        assert allowed < fresh < 10.0 * OptimizerConfig().epsilon
        base = QuadratureRule(legendre(), gauss3.nodes, weights, 5, stored)
        bound = f"allowed {allowed:.3e}"
        with pytest.raises(ParameterError, match=bound):
            extend_patterson(base, leg_table)
        path = tmp_path / "base.json"
        save(make_rule_record(base), path)
        with pytest.raises(IntegrityError, match=bound):
            load(path)

    def test_claim_within_the_bound_passes_both(self, leg_table, tmp_path):
        gauss3 = gauss_rule(leg_table, 3)
        weights = gauss3.weights + np.array([1e-13, 0.0, -1e-13])
        fresh = verify_rule(
            QuadratureRule(legendre(), gauss3.nodes, weights, 5, 0.0),
            leg_table).norm
        base = QuadratureRule(legendre(), gauss3.nodes, weights, 5,
                              fresh / 5.0)
        rule, _ = extend_patterson(base, leg_table)
        assert rule.exactness_degree == 11
        path = tmp_path / "base.json"
        save(make_rule_record(base), path)
        assert load(path).payload.residual_norm == fresh / 5.0


def _key_paths(doc, prefix=()):
    """Every key path of the nested dicts of a JSON document."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def pair_text(leg_pair, tmp_path_factory):
    pair, _ = leg_pair
    path = tmp_path_factory.mktemp("pristine") / "pair.json"
    save(make_pair_record(pair, iterations=7), path)
    return path.read_text()


# integers stay small: load(verify=True) builds a recurrence table through
# the stored degree, however large, before it can reject the record
_WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 64), st.text(max_size=8),
    st.lists(st.integers(-3, 8), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _garbled(draw, text):
    """A saved pair record with one defect: a dropped key, a wrong type, a
    non-finite number or an oversized list in one field, or a cut file."""
    how = draw(st.sampled_from(["drop", "type", "nan", "oversize",
                                "truncate"]))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 2))]
    doc = json.loads(text)
    *parents, key = draw(st.sampled_from(sorted(_key_paths(doc))))
    holder = doc
    for parent in parents:
        holder = holder[parent]
    if how == "drop":
        del holder[key]
    elif how == "type":
        holder[key] = draw(_WRONG_TYPES)
    elif how == "nan":
        value = holder[key]
        if isinstance(value, list) and value:
            value[draw(st.integers(0, len(value) - 1))] = draw(_NON_FINITE)
        else:
            holder[key] = draw(_NON_FINITE)
        return json.dumps(doc)
    else:
        value = holder[key]
        extra = draw(st.lists(st.floats(-2.0, 2.0), min_size=1,
                              max_size=40))
        holder[key] = (value if isinstance(value, list) else []) + extra
    return json.dumps(doc, allow_nan=False)


class TestLoadFuzz:
    """A garbled record fails with a documented error class, and a catalog
    scan skips it with a warning instead of raising."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data(), verify=st.booleans())
    def test_garbled_pair_record(self, pair_text, data, verify):
        text = data.draw(_garbled(pair_text), label="record")
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "pair.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                load(path, verify=verify)
            except (SchemaError, IntegrityError):
                rejected = True
            else:
                rejected = False
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                catalog = catalog_scan(directory, verify=verify)
        assert len(catalog) == (0 if rejected else 1)
        skipped = [w for w in caught if "skipping" in str(w.message)]
        assert len(skipped) == (1 if rejected else 0)


class TestCatalog:
    def test_empty_directory(self, tmp_path):
        catalog = catalog_scan(tmp_path)
        assert len(catalog) == 0
        assert isinstance(catalog, Catalog)

    def test_three_records(self, leg_table, leg_pair, tmp_path):
        pair, _ = leg_pair
        save(make_rule_record(gauss_rule(leg_table, 3)),
             tmp_path / "a.json")
        save(make_rule_record(gauss_rule(leg_table, 5)),
             tmp_path / "b.json")
        save(make_pair_record(pair), tmp_path / "c.json")
        catalog = catalog_scan(tmp_path)
        assert len(catalog) == 3
        assert ("legendre", (), None, 3, "gauss") in catalog.keys()
        assert ("legendre", (), None, 5, "gauss") in catalog.keys()
        assert ("legendre", (), 2, 5, "kronrod") in catalog.keys()
        entry = catalog.get(("legendre", (), 2, 5, "kronrod"))
        assert entry.path.endswith("c.json")

    def test_corrupt_file_skipped_with_warning(self, leg_table, tmp_path):
        save(make_rule_record(gauss_rule(leg_table, 3)),
             tmp_path / "ok.json")
        (tmp_path / "bad.json").write_text("{broken")
        with pytest.warns(UserWarning, match="skipping"):
            catalog = catalog_scan(tmp_path)
        assert len(catalog) == 1

    def test_duplicate_key_last_write_wins(self, leg_table, tmp_path):
        rule = gauss_rule(leg_table, 3)
        save(make_rule_record(rule, iterations=1), tmp_path / "old.json")
        save(make_rule_record(rule, iterations=2), tmp_path / "new.json")
        os.utime(tmp_path / "old.json", (1_000_000, 1_000_000))
        os.utime(tmp_path / "new.json", (2_000_000, 2_000_000))
        with pytest.warns(UserWarning, match="duplicate"):
            catalog = catalog_scan(tmp_path)
        assert len(catalog) == 1
        entry = catalog.get(("legendre", (), None, 3, "gauss"))
        assert entry.path.endswith("new.json")
        assert entry.record.provenance.iterations == 2

    def test_rescan_idempotent(self, leg_table, leg_pair, tmp_path):
        pair, _ = leg_pair
        save(make_rule_record(gauss_rule(leg_table, 4)),
             tmp_path / "r.json")
        save(make_pair_record(pair), tmp_path / "p.json")
        first = catalog_scan(tmp_path)
        second = catalog_scan(tmp_path)
        assert set(first.keys()) == set(second.keys())
        for key in first.keys():
            assert first.get(key).path == second.get(key).path

    def test_distinct_custom_families_keep_distinct_keys(self, tmp_path):
        # same size, same (empty) params, different recurrences
        rules = []
        for rho in (0.0, 1.0):
            base = recurrence_coefficients(generalized_laguerre(rho), 12)
            fam = custom_family(base.a.tolist(), base.b.tolist(),
                                (0.0, math.inf))
            rules.append(gauss_rule(recurrence_coefficients(fam, 9), 4))
        save(make_rule_record(rules[0]), tmp_path / "one.json")
        save(make_rule_record(rules[1]), tmp_path / "two.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            catalog = catalog_scan(tmp_path, verify=True)
        assert len(catalog) == 2
        kept = sorted(e.record.payload.nodes[0] for e in
                      catalog.entries.values())
        assert kept == sorted(r.nodes[0] for r in rules)

    def test_custom_family_key_is_stable(self, tmp_path):
        base = recurrence_coefficients(generalized_laguerre(0.0), 12)
        fam = custom_family(base.a.tolist(), base.b.tolist(),
                            (0.0, math.inf))
        record = make_rule_record(
            gauss_rule(recurrence_coefficients(fam, 9), 4))
        save(record, tmp_path / "c.json")
        assert load(tmp_path / "c.json").key == record.key
        assert record.key[0] == "custom" and record.key[1] != ()

    def test_non_json_files_ignored(self, leg_table, tmp_path):
        save(make_rule_record(gauss_rule(leg_table, 3)),
             tmp_path / "ok.json")
        (tmp_path / "notes.txt").write_text("irrelevant")
        assert len(catalog_scan(tmp_path)) == 1


class TestCsvExport:
    def test_header_and_lossless_rows(self, leg_table, tmp_path):
        rule = gauss_rule(leg_table, 5)
        path = tmp_path / "rule.csv"
        write_rule_csv(rule, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "node,weight"
        assert len(lines) == rule.n + 1
        for line, x, w in zip(lines[1:], rule.nodes, rule.weights):
            xs, ws = line.split(",")
            assert float(xs) == x
            assert float(ws) == w

    def test_failed_write_leaves_the_old_file(self, leg_table, tmp_path):
        path = tmp_path / "rule.csv"
        write_rule_csv(gauss_rule(leg_table, 3), path)
        before = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        with mock.patch("os.replace", interrupted), \
                pytest.raises(OSError, match="rule.csv"):
            write_rule_csv(gauss_rule(leg_table, 5), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["rule.csv"]

    def test_files_get_the_mode_open_gives(self, leg_table, tmp_path):
        rule = gauss_rule(leg_table, 3)
        (tmp_path / "plain").write_text("")
        write_rule_csv(rule, tmp_path / "rule.csv")
        save(make_rule_record(rule), tmp_path / "rule.json")
        modes = {name: os.stat(tmp_path / name).st_mode & 0o777
                 for name in ("plain", "rule.csv", "rule.json")}
        assert modes["rule.csv"] == modes["rule.json"] == modes["plain"]
