"""Persistent storage for certified rules and nested pairs.

Records are single JSON files carrying the family descriptor, the node and
weight data at full binary64 precision, the certification (exactness degree,
residual norm, and the tolerance configuration it was produced under), and
provenance.  Writes are atomic and durable (temp file, fsync, rename, then
a directory fsync) and loads re-verify the stored certificate against
freshly built recurrence tables, so a catalog directory can always be
trusted or rejected file by file.

One decoder (``_decode``) reads every record file, for ``load``,
``verify_record`` and ``catalog_scan`` alike: a missing or mistyped field
(a count or degree that is not a JSON integer among them) raises
SchemaError and data no certified rule can hold IntegrityError, each
naming the file once.  Fresh checks apply ``gauss.recheck``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    IntegrityError,
    NestQuadError,
    ParameterError,
    SchemaError,
)
from .gauss import QuadratureRule, recheck
from .nested_optimizer import NestedRulePair, OptimizerConfig
from .nested_optimizer import _A, _weight_floor
from .orthopoly import WeightFamily, recurrence_coefficients

__all__ = [
    "SCHEMA_VERSION",
    "Certification",
    "Provenance",
    "RuleRecord",
    "Catalog",
    "CatalogEntry",
    "make_rule_record",
    "make_pair_record",
    "save",
    "load",
    "verify_record",
    "catalog_scan",
    "write_rule_csv",
]

SCHEMA_VERSION = 1

_GENERATOR = "nestquad"
_MODES = {"rule": ("gauss", "patterson"), "pair": ("kronrod",)}
# What decoding a malformed document raises; OverflowError comes from
# an integer too large for a float.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


@dataclass(frozen=True)
class Certification:
    """Tolerance snapshot a rule was certified under.  Its file block also
    repeats the payload's degree and residual norm, which load checks."""

    epsilon: float
    A: float
    weight_floor: float


@dataclass(frozen=True)
class Provenance:
    generator: str
    version: str
    timestamp: str
    iterations: int


@dataclass(frozen=True)
class RuleRecord:
    """One stored rule or nested pair with its certificate.

    ``payload`` is a QuadratureRule (kind "rule") or a NestedRulePair (kind
    "pair"); ``mode`` tags how the payload was produced (gauss or
    patterson for a rule, kronrod for a pair).
    """

    mode: str
    payload: object
    certification: Certification
    provenance: Provenance

    def __post_init__(self):
        if not isinstance(self.payload, (QuadratureRule, NestedRulePair)):
            raise ParameterError(
                "payload must be a QuadratureRule or a NestedRulePair")
        if self.mode not in _MODES[self.kind]:
            raise ParameterError(
                f"mode {self.mode!r} invalid for kind {self.kind!r}")

    @property
    def kind(self) -> str:
        return "pair" if isinstance(self.payload, NestedRulePair) else "rule"

    @property
    def family(self) -> WeightFamily:
        return self.payload.family

    @property
    def key(self) -> tuple:
        """Catalog key (family kind, params, n1, n2, mode).

        Custom families have no params; their slot holds a digest of the
        recurrence coefficients and domain instead.
        """
        params = self.family.params
        if self.family.kind == "custom":
            # only a custom family's key needs hashlib (and OpenSSL)
            import hashlib
            family = self.family
            # adding 0.0 turns -0.0 into 0.0, which the family treats as equal
            values = np.array(family.custom_a + family.custom_b
                              + family.custom_domain) + 0.0
            params = (hashlib.sha256(values.tobytes()).hexdigest()[:16],)
        if self.kind == "pair":
            pair = self.payload
            return (self.family.kind, params,
                    pair.coarse.n, pair.fine.n, self.mode)
        return (self.family.kind, params, None, self.payload.n, self.mode)


def _make_record(mode: str, payload, config, iterations: int) -> RuleRecord:
    cert = Certification(
        epsilon=(config or OptimizerConfig()).epsilon,
        A=_A,
        weight_floor=_weight_floor(payload.family),
    )
    prov = Provenance(
        generator=_GENERATOR,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        iterations=int(iterations),
    )
    return RuleRecord(mode, payload, cert, prov)


def make_rule_record(rule: QuadratureRule, mode: str = "gauss",
                     config: OptimizerConfig | None = None,
                     iterations: int = 0) -> RuleRecord:
    return _make_record(mode, rule, config, iterations)


def make_pair_record(pair: NestedRulePair,
                     config: OptimizerConfig | None = None,
                     iterations: int = 0) -> RuleRecord:
    return _make_record("kronrod", pair, config, iterations)


def _encode_bound(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _family_to_json(family: WeightFamily) -> dict:
    doc = {"kind": family.kind, "params": [float(p) for p in family.params]}
    if family.kind == "custom":
        doc["a"] = [float(v) for v in family.custom_a]
        doc["b"] = [float(v) for v in family.custom_b]
        doc["domain"] = [_encode_bound(family.custom_domain[0]),
                         _encode_bound(family.custom_domain[1])]
    return doc


def _family_from_json(doc: dict) -> WeightFamily:
    kind = doc["kind"]
    params = tuple(float(p) for p in doc["params"])
    if kind == "custom":
        return WeightFamily(
            kind, params,
            custom_a=tuple(float(v) for v in doc["a"]),
            custom_b=tuple(float(v) for v in doc["b"]),
            custom_domain=(float(doc["domain"][0]),
                           float(doc["domain"][1])))
    return WeightFamily(kind, params)


def _require_finite(name: str, values) -> list:
    out = [float(v) for v in np.asarray(values, dtype=float).ravel()]
    if not all(math.isfinite(v) for v in out):
        raise ParameterError(f"{name} contains non-finite values")
    return out


def _record_to_json(record: RuleRecord) -> dict:
    if record.kind == "pair":
        pair = record.payload
        data = {
            "mode": record.mode,
            "n1": pair.coarse.n,
            "n2": pair.fine.n,
            "nodes": _require_finite("nodes", pair.fine.nodes),
            "weights": _require_finite(
                "weights",
                np.concatenate([pair.coarse.weights, pair.fine.weights])),
            "subset_map": [int(i) for i in pair.subset_map],
            "alpha1": pair.coarse.exactness_degree,
            "alpha2": pair.fine.exactness_degree,
            "residual_norm": pair.residual_norm,
            "residual_norm_coarse": pair.coarse.residual_norm,
            "residual_norm_fine": pair.fine.residual_norm,
        }
        rules = [pair.coarse, pair.fine]
    else:
        rule = record.payload
        data = {
            "mode": record.mode,
            "n2": rule.n,
            "nodes": _require_finite("nodes", rule.nodes),
            "weights": _require_finite("weights", rule.weights),
            "alpha2": rule.exactness_degree,
            "residual_norm": rule.residual_norm,
        }
        rules = [rule]
    if any(rule.weight_floor_relaxed for rule in rules):
        data["weight_floor_relaxed"] = True
    cert = record.certification
    if not all(math.isfinite(v) for v in (data["residual_norm"], cert.epsilon,
                                          cert.A, cert.weight_floor)):
        raise ParameterError("certification contains non-finite values")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": record.kind,
        "family": _family_to_json(record.family),
        "data": data,
        "certification": {
            "alpha": data["alpha2"],
            "residual_norm": data["residual_norm"],
            "epsilon": cert.epsilon,
            "A": cert.A,
            "weight_floor": cert.weight_floor,
        },
        "provenance": {
            "generator": record.provenance.generator,
            "version": record.provenance.version,
            "timestamp": record.provenance.timestamp,
            "iterations": record.provenance.iterations,
        },
    }


def save(record: RuleRecord, path) -> None:
    """Atomically and durably write a record as JSON (UTF-8,
    newline-terminated)."""
    doc = _record_to_json(record)
    _write_atomically(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _write_atomically(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through a temp file in the same
    directory: fsync, rename over ``path``, then fsync the directory.  The
    file gets the mode ``open`` would give it.  A failure leaves ``path``
    as it was and removes the temp file; the OSError names ``path``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory,
                                   prefix=f".{os.path.basename(path)}-",
                                   suffix=".tmp")
        umask = os.umask(0o022)  # mkstemp's 0600 would hide the file
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        tmp = None
        # make the rename itself durable
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        raise OSError(f"writing {path!r} failed: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _integer(value) -> int:
    """A JSON integer; anything else (5.0 too) is a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _rule_parts(doc: dict, family: WeightFamily):
    """Decode a record's data, checking only shapes and degrees.

    Returns one (nodes, weights, degree, stored residual norm) tuple per
    rule, coarse before fine, and the subset map of a pair (None for a
    single rule).  No n-node rule is exact beyond degree 2n - 1, so a
    larger stored degree is rejected with IntegrityError before any
    recurrence table is built for it; so is a custom family whose stored
    recurrence stops short of the degree, and a certification block whose
    degree or residual norm differs from the data's.
    """
    data = doc["data"]
    nodes = np.array(data["nodes"], dtype=float)
    weights = np.array(data["weights"], dtype=float)
    subset = None
    if doc["kind"] == "pair":
        n1 = _integer(data["n1"])
        n2 = _integer(data["n2"])
        if nodes.shape != (n2,) or weights.shape != (n1 + n2,):
            raise SchemaError("pair data shapes are inconsistent")
        subset = tuple(_integer(i) for i in data["subset_map"])
        if len(subset) != n1 or any(not 0 <= i < n2 for i in subset):
            raise SchemaError(
                f"subset_map must hold {n1} indices of the {n2} fine nodes")
        stacked = float(data["residual_norm"])
        parts = [(nodes[list(subset)], weights[:n1], _integer(data["alpha1"]),
                  float(data.get("residual_norm_coarse", stacked))),
                 (nodes, weights[n1:], _integer(data["alpha2"]),
                  float(data.get("residual_norm_fine", stacked)))]
    else:
        if (nodes.shape != (_integer(data["n2"]),)
                or weights.shape != nodes.shape):
            raise SchemaError("rule data shapes are inconsistent")
        parts = [(nodes, weights, _integer(data["alpha2"]),
                  float(data["residual_norm"]))]
    for part_nodes, _, degree, _ in parts:
        if not 0 <= degree <= 2 * part_nodes.size - 1:
            raise IntegrityError(
                f"a {part_nodes.size}-node rule cannot be exact for degree "
                f"{degree}; the bound is 0..{2 * part_nodes.size - 1}")
    top = max(part[2] for part in parts)
    if family.kind == "custom" and top >= len(family.custom_a):
        raise IntegrityError(
            f"custom family provides {len(family.custom_a)} coefficients, "
            f"degree {top} needs {top + 1}")
    cert = doc["certification"]
    claim = _integer(cert["alpha"]), float(cert["residual_norm"])
    stored = parts[-1][2], float(data["residual_norm"])
    if claim != stored:
        raise IntegrityError(
            f"certification claims degree {claim[0]} and residual "
            f"{claim[1]!r}, the data {stored[0]} and {stored[1]!r}")
    return parts, subset


def _fresh_check(family: WeightFamily, parts, degree: int | None = None):
    """``gauss.recheck`` of each decoded part, through its stored degree
    or ``degree``, against one freshly built recurrence table."""
    degrees = [part[2] if degree is None else degree for part in parts]
    table = recurrence_coefficients(family, max(degrees))
    return [recheck(table, nodes, weights, alpha, stored)
            for (nodes, weights, _, stored), alpha in zip(parts, degrees)]


def _decode(path):
    """Read and decode a record file, building no rule object.

    Returns (doc, family, parts, subset, certification, provenance), the
    middle two as ``_rule_parts`` gives them.  A missing or mistyped field
    raises SchemaError, data no certified rule can hold IntegrityError;
    either names the file once.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    try:
        version = doc["schema_version"]
        if version != SCHEMA_VERSION:
            raise SchemaError(f"unknown schema_version {version!r}")
        kind = doc["kind"]
        if kind not in _MODES:
            raise SchemaError(f"unknown kind {kind!r}")
        mode = doc["data"]["mode"]
        if mode not in _MODES[kind]:
            raise SchemaError(f"mode {mode!r} invalid for kind {kind!r}")
        family = _family_from_json(doc["family"])
        cert, prov = doc["certification"], doc["provenance"]
        cert = Certification(*(float(cert[key]) for key in
                               ("epsilon", "A", "weight_floor")))
        prov = Provenance(*(str(prov[key]) for key in
                            ("generator", "version", "timestamp")),
                          _integer(prov["iterations"]))
        parts, subset = _rule_parts(doc, family)
    except (SchemaError, IntegrityError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except _MALFORMED as exc:
        raise SchemaError(f"{path}: malformed record ({exc})") from exc
    return doc, family, parts, subset, cert, prov


def load(path, verify: bool = True) -> RuleRecord:
    """Parse a record file, rebuilding and (by default) re-verifying it.

    Verification recomputes the moment residuals from scratch and rejects
    the file when their norm breaks ``gauss.recheck``'s rule, 10 (stored +
    1e-16).
    """
    doc, family, parts, subset, cert, prov = _decode(path)
    data = doc["data"]
    try:
        relaxed = bool(data.get("weight_floor_relaxed", False))
        rules = [QuadratureRule(family, nodes, weights, alpha, norm,
                                weight_floor_relaxed=relaxed)
                 for nodes, weights, alpha, norm in parts]
        payload = rules[0] if subset is None else NestedRulePair(
            *rules, subset, float(data["residual_norm"]))
    except NestQuadError as exc:
        raise IntegrityError(f"{path}: stored data is inconsistent "
                             f"({exc})") from exc
    checks = _fresh_check(family, parts) if verify else []
    for (*_, stored), (_, fresh, allowed) in zip(parts, checks):
        if fresh > allowed:
            raise IntegrityError(
                f"{path}: stored residual {stored:.3e} but fresh "
                f"verification gives {fresh:.3e} (allowed {allowed:.3e})")
    return RuleRecord(data["mode"], payload, cert, prov)


def verify_record(path, degree: int | None = None):
    """Recompute a record file's moment residuals, through ``degree`` if
    given, building no rule object: a record that ``load`` refuses for
    its weights is still checked.  Returns (family, parts, checks), one
    (nodes, weights, degree, stored norm) part and one (residuals, norm,
    allowed) check per rule, coarse first; a rule passes when its norm is
    at most ``allowed``.
    """
    _, family, parts, *_ = _decode(path)
    return family, parts, _fresh_check(family, parts, degree)


@dataclass(frozen=True)
class CatalogEntry:
    key: tuple
    path: str
    record: RuleRecord


@dataclass(frozen=True)
class Catalog:
    """Directory index of records, keyed by (kind, params, n1, n2, mode)."""

    directory: str
    entries: dict

    def __len__(self) -> int:
        return len(self.entries)

    def keys(self):
        return self.entries.keys()

    def get(self, key) -> CatalogEntry | None:
        return self.entries.get(key)


def catalog_scan(directory, verify: bool = True) -> Catalog:
    """Index every readable record in a directory.

    Each file is read with ``load(path, verify)``, so by default a record
    whose certificate fails fresh verification is not indexed.  Unreadable
    or invalid files are skipped with a warning; duplicate keys resolve to
    the most recently modified file (again with a warning).
    """
    directory = os.fspath(directory)
    names = [n for n in os.listdir(directory) if n.endswith(".json")]
    paths = [os.path.join(directory, n) for n in names]
    paths.sort(key=lambda p: (os.path.getmtime(p), p))
    entries: dict = {}
    for path in paths:
        try:
            record = load(path, verify=verify)
        except (NestQuadError, OSError) as exc:
            # load's messages start with the path, the system's may not
            reason = exc if str(exc).startswith(path) else f"{path}: {exc}"
            warnings.warn(f"skipping {reason}", UserWarning, stacklevel=2)
            continue
        key = record.key
        if key in entries:
            warnings.warn(
                f"duplicate records for key {key}: keeping newer "
                f"{path} over {entries[key].path}", UserWarning,
                stacklevel=2)
        entries[key] = CatalogEntry(key=key, path=path, record=record)
    return Catalog(directory=directory, entries=entries)


def write_rule_csv(rule: QuadratureRule, path) -> None:
    """One node,weight row per line with a header, lossless decimals,
    written atomically."""
    rows = [f"{float(x)!r},{float(w)!r}\n"
            for x, w in zip(rule.nodes, rule.weights)]
    _write_atomically(path, "node,weight\n" + "".join(rows))
