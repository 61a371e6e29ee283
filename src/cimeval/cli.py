"""Command line interface.

Subcommands: evaluate, search, sweep, oracle-compare, validate.

Exit codes: 0 success, 2 invalid input (parse or validation failure),
3 empty mapping space (search found no valid mapping), 4 oracle mismatch.

Reports are deterministic: JSON with sorted keys and no timestamps, CSV
with LF line endings and a schema comment.  search and sweep accept
--jobs N and ignore it, so reruns and --jobs variations are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .archspec import (
    NUMERIC_ATTRS,
    ArchError,
    ArchTree,
    check_numeric,
    mesh_factor,
    parse_arch,
    validate,
)
from .components import ComponentError
from .engine import (
    DATAPATH_ATTRS,
    EngineError,
    LayerEvaluator,
    oracle_evaluate,
    search as engine_search,
)
from .mapping import (
    OBJECTIVES,
    MapperConfig,
    Mapping,
    MappingError,
    SlotTable,
    check_valid,
    parse_mapping,
    serialize_mapping,
)
from .valuemodel import ENCODINGS, ValueModelError
from .workload import WorkloadError, WorkloadLayer, parse_workload

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_MISMATCH = 4

_INPUT_ERRORS = (
    ArchError,
    WorkloadError,
    MappingError,
    ComponentError,
    ValueModelError,
    EngineError,
    OSError,
)


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _input_entry(path: str) -> dict:
    return {"path": path, "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}


def _read(path: str, what: str) -> str:
    """The UTF-8 text of the file given to --``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError(f"--{what} {path} is not UTF-8 text: {exc}") from None


def _load_layers(path: str, layer_name: str | None) -> list[WorkloadLayer]:
    layers = parse_workload(_read(path, "workload"), base_dir=Path(path).parent)
    if layer_name is None:
        return layers
    for layer in layers:
        if layer.name == layer_name:
            return [layer]
    known = ", ".join(l.name for l in layers)
    raise _CliError(f"workload has no layer {layer_name!r} (layers: {known})")


def _load_mapping(path: str) -> Mapping:
    return parse_mapping(_read(path, "mapping"))


def _counts_doc(counts: dict) -> dict:
    doc: dict = {}
    for (node, tensor, action), c in sorted(counts.items()):
        doc.setdefault(node, {}).setdefault(tensor, {})[action] = c
    return doc


def _metrics_doc(res) -> dict:
    return {
        "energy_j": res.energy_j,
        "energy_per_mac_j": res.energy_per_mac_j,
        "cycles": res.cycles,
        "latency_s": res.latency_s,
        "utilization": res.utilization,
        "area_m2": res.area_m2,
        "edp_js": res.edp_js,
        "macs": res.macs,
    }


def _breakdown_doc(breakdown: dict) -> dict:
    doc: dict = {}
    for (node, action), (count, unit, energy) in sorted(breakdown.items()):
        doc.setdefault(node, {})[action] = {
            "count": count,
            "unit_j": unit,
            "energy_j": energy,
        }
    return doc


_NON_FINITE = (
    "the report holds an infinite or NaN number, which JSON cannot "
    "represent; check the architecture's energy and timing attributes"
)


def _check_finite(*values: float) -> None:
    """Refuse a result that holds an infinite or NaN number."""
    if not all(math.isfinite(v) for v in values):
        raise _CliError(_NON_FINITE)


def _write(text: str, out: str | None) -> None:
    """Write a report to the --out file, or to stdout without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _emit_report(args, command: str, inputs, **fields) -> None:
    """Write ``command``'s JSON report, headed by the path and sha256 of
    each input file ``inputs`` names (as args attributes)."""
    report = {
        "command": command,
        "version": __version__,
        "inputs": {name: _input_entry(getattr(args, name)) for name in inputs},
        **fields,
    }
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise _CliError(_NON_FINITE) from None
    _write(text, args.out)


def _load(args, one: str | None = None):
    """Parse --arch and --workload and check the arch against each layer
    --layer selects.  Returns (arch, layers), or with ``one`` (the
    command's name) (arch, layer) for the single selected layer."""
    arch = parse_arch(_read(args.arch, "arch"))
    layers = _load_layers(args.workload, args.layer)
    if one is not None and len(layers) != 1:
        names = ", ".join(l.name for l in layers)
        raise _CliError(f"{one} needs --layer to pick one of: {names}")
    # the arch on its own, then against each layer: the first failing check
    errors = validate(arch)
    for layer in layers:
        errors = errors or validate(arch, layer)
    if errors:
        raise _CliError("architecture validation failed: " + "; ".join(errors))
    return arch, layers[0] if one else layers


def _load_checked(args, command: str):
    """_load's one layer and --mapping, checked before anything is priced:
    (mapping, diagnostics, an evaluator on the check's slot table)."""
    arch, layer = _load(args, command)
    mapping = _load_mapping(args.mapping)
    table = SlotTable(arch, layer)
    diag = check_valid(arch, layer, mapping, table)
    if not diag.ok:
        raise _CliError("invalid mapping: " + "; ".join(diag.errors))
    return mapping, diag, LayerEvaluator(arch, layer, table=table)


def _cmd_evaluate(args) -> int:
    mapping, diag, evaluator = _load_checked(args, "evaluate")
    res = evaluator.evaluate(mapping)
    _emit_report(
        args,
        "evaluate",
        ("arch", "workload", "mapping"),
        layer=evaluator.layer.name,
        mapping=mapping.to_doc(),
        metrics=_metrics_doc(res),
        counts=_counts_doc(res.counts),
        breakdown=_breakdown_doc(res.breakdown),
        energy_table_fingerprint=evaluator.table.fingerprint,
        diagnostics={"warnings": diag.warnings},
    )
    return EXIT_OK


def _cmd_search(args) -> int:
    arch, layers = _load(args)
    if args.dump_mapping and len(layers) != 1:
        raise _CliError("--dump-mapping needs --layer with multi-layer workloads")
    config = MapperConfig(args.objective, args.budget, args.seed)
    per_layer: dict = {}
    totals = {"energy_j": 0.0, "latency_s": 0.0, "macs": 0}
    area = None
    for layer in layers:
        found = engine_search(arch, layer, config)
        if found is None:
            raise _CliError(
                f"no valid mapping for layer {layer.name!r} "
                f"within budget {args.budget}",
                EXIT_EMPTY,
            )
        res = found.result
        per_layer[layer.name] = {
            "best_index": found.index,
            "best_mapping": found.mapping.to_doc(),
            "metrics": _metrics_doc(res),
            "evaluated": found.evaluated,
            "valid": found.valid,
            "space_total": found.space_total,
            "energy_table_fingerprint": found.fingerprint,
        }
        totals["energy_j"] += res.energy_j
        totals["latency_s"] += res.latency_s
        totals["macs"] += res.macs
        area = res.area_m2
        if args.dump_mapping:
            Path(args.dump_mapping).write_text(
                serialize_mapping(found.mapping), encoding="utf-8", newline="\n"
            )
    totals["area_m2"] = area
    totals["edp_js"] = totals["energy_j"] * totals["latency_s"]
    _emit_report(
        args,
        "search",
        ("arch", "workload"),
        objective=args.objective,
        budget=args.budget,
        seed=args.seed,
        layers=per_layer,
        totals=totals,
    )
    return EXIT_OK


def _parse_param(spec: str) -> tuple[str, list]:
    if "=" not in spec:
        raise _CliError(f"--param must look like node.attr=v1,v2,... got {spec!r}")
    path, _, raw = spec.partition("=")
    path = path.strip()
    if "." not in path:
        raise _CliError(f"--param path must be node.attr, got {path!r}")
    # an encoding setting takes names, checked here; any other takes numbers
    encoding = path.endswith("_encoding")
    values = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if encoding:
            if tok not in ENCODINGS:
                raise _CliError(
                    f"--param {path}: unknown encoding {tok!r}, expected one of "
                    + ", ".join(ENCODINGS)
                )
            values.append(tok)
            continue
        try:
            values.append(int(tok))
        except ValueError:
            try:
                values.append(float(tok))
            except ValueError:
                raise _CliError(f"--param value {tok!r} is not a number")
    if not values:
        raise _CliError(f"--param {path} has no values")
    return path, values


def _apply_param(arch: ArchTree, path: str, value) -> ArchTree:
    node_name, _, attr = path.partition(".")
    nodes = []
    hit = False
    for node in arch.nodes:
        if node.name != node_name:
            nodes.append(node)
            continue
        hit = True
        if attr in ("mesh_x", "mesh_y"):
            mesh = mesh_factor(node_name, attr, value)
            spatial = dataclasses.replace(node.spatial, **{attr: mesh})
            nodes.append(dataclasses.replace(node, spatial=spatial))
        elif attr in node.attributes or attr in NUMERIC_ATTRS | DATAPATH_ATTRS:
            if attr in NUMERIC_ATTRS:
                check_numeric(node_name, attr, value)
            attrs = dict(node.attributes)
            attrs[attr] = value
            nodes.append(dataclasses.replace(node, attributes=attrs))
        else:
            # nothing would read it, say the YAML spelling meshX
            raise _CliError(
                f"sweep parameter {path!r}: node {node_name!r} has no attribute "
                f"{attr!r} (mesh sizes are mesh_x and mesh_y)"
            )
    if not hit:
        raise _CliError(f"sweep parameter names unknown node {node_name!r}")
    return ArchTree(tuple(nodes))


def _cmd_sweep(args) -> int:
    arch, layers = _load(args)
    params = [_parse_param(spec) for spec in args.param]
    if not params:
        raise _CliError("sweep needs at least one --param")
    n_points = len(params[0][1])
    for path, values in params:
        if len(values) != n_points:
            raise _CliError(
                "zipped --param lists must have equal lengths; "
                f"{path} has {len(values)}, expected {n_points}"
            )
    config = MapperConfig(args.objective, args.budget, args.seed)
    paths = [path for path, _ in params]
    columns = (
        ["layer"]
        + paths
        + ["best_energy_j", "energy_per_mac_j", "cycles", "utilization", "area_m2"]
    )
    buf = io.StringIO()
    buf.write("# cimeval-sweep-v1 " + ",".join(columns) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for k in range(n_points):
        point = arch
        for path, values in params:
            point = _apply_param(point, path, values[k])
        # an encoding name as it is, a number as its repr
        cells = [vs[k] if isinstance(vs[k], str) else repr(vs[k]) for _, vs in params]
        for layer in layers:
            found = engine_search(point, layer, config)
            if found is None:
                raise _CliError(
                    f"no valid mapping at sweep point {k} for layer {layer.name!r}",
                    EXIT_EMPTY,
                )
            res = found.result
            _check_finite(
                res.energy_j, res.energy_per_mac_j, res.utilization, res.area_m2
            )
            writer.writerow(
                [layer.name]
                + cells
                + [
                    repr(res.energy_j),
                    repr(res.energy_per_mac_j),
                    str(res.cycles),
                    repr(res.utilization),
                    repr(res.area_m2),
                ]
            )
    _write(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_oracle_compare(args) -> int:
    tol = args.energy_tol
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise _CliError(f"--energy-tol must be a finite number >= 0, got {tol!r}")
    mapping, _, evaluator = _load_checked(args, "oracle-compare")
    layer = evaluator.layer
    res = evaluator.evaluate(mapping)
    oracle = oracle_evaluate(evaluator.arch, layer, mapping, seed=args.seed)

    keys = sorted(set(res.counts) | set(oracle.counts))
    mismatches = []
    lines = []
    for key in keys:
        a = res.counts.get(key, 0)
        b = oracle.counts.get(key, 0)
        ok = a == b
        if not ok:
            mismatches.append(key)
        node, tensor, action = key
        lines.append(
            f"{'ok      ' if ok else 'MISMATCH'} {node}.{tensor}.{action}: "
            f"model={a} oracle={b}"
        )
    gap = abs(res.energy_j - oracle.energy_j) / res.energy_j if res.energy_j else 0.0
    _check_finite(res.energy_j, oracle.energy_j, gap)
    lines.append(
        f"energy: model={res.energy_j!r} J oracle={oracle.energy_j!r} J "
        f"relative_gap={gap:.3e}"
    )
    energy_fail = args.energy_tol is not None and gap > args.energy_tol
    verdict = "match" if not mismatches and not energy_fail else "mismatch"
    lines.append(f"verdict: {verdict}")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        _emit_report(
            args,
            "oracle-compare",
            ("arch", "workload", "mapping"),
            layer=layer.name,
            seed=args.seed,
            counts_model=_counts_doc(res.counts),
            counts_oracle=_counts_doc(oracle.counts),
            energy_model_j=res.energy_j,
            energy_oracle_j=oracle.energy_j,
            energy_relative_gap=gap,
            verdict=verdict,
        )
    return EXIT_OK if verdict == "match" else EXIT_MISMATCH


def _cmd_validate(args) -> int:
    for flag in ("mapping", "layer"):
        if getattr(args, flag) and not args.workload:
            raise _CliError(f"validating with --{flag} needs --workload")
    arch = parse_arch(_read(args.arch, "arch"))
    layers = _load_layers(args.workload, args.layer) if args.workload else []
    mapping = _load_mapping(args.mapping) if args.mapping else None
    problems = validate(arch)
    warnings: list[str] = []
    # each layer in evaluate's order, once the arch passes on its own
    for layer in [] if problems else layers:
        errors = validate(arch, layer)
        if not errors:
            table = SlotTable(arch, layer)
            if mapping is not None:
                diag = check_valid(arch, layer, mapping, table)
                errors = diag.errors
                warnings += [f"[{layer.name}] {w}" for w in diag.warnings]
            # build what evaluate builds: the count plan, energy table, area
            try:
                LayerEvaluator(arch, layer, table=table)
            except _INPUT_ERRORS as e:
                errors = [*errors, str(e)]
        problems += [f"[{layer.name}] {e}" for e in errors]
    for w in warnings:
        sys.stdout.write(f"warning: {w}\n")
    if problems:
        for p in problems:
            sys.stdout.write(f"error: {p}\n")
        return EXIT_INPUT
    sys.stdout.write("ok\n")
    return EXIT_OK


@functools.cache  # one parser per process: each build leaves argparse cycles
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cimeval",
        description="Statistical energy/area/latency model for "
        "compute-in-memory accelerators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p, mapping=False):
        p.add_argument("--arch", required=True, help="architecture YAML")
        p.add_argument("--workload", required=True, help="workload YAML")
        if mapping:
            p.add_argument("--mapping", required=True, help="mapping YAML")
        p.add_argument("--layer", help="restrict to one layer")
        p.add_argument("--out", help="write the report here instead of stdout")

    def common_search(p):
        p.add_argument(
            "--objective",
            choices=OBJECTIVES,
            default="energy",
        )
        p.add_argument("--budget", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--jobs",
            type=int,
            help="ignored; accepted so that existing scripts keep working",
        )

    p = sub.add_parser("evaluate", help="evaluate one mapping")
    common_io(p, mapping=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("search", help="search the mapping space")
    common_io(p)
    common_search(p)
    p.add_argument("--dump-mapping", help="write the best mapping YAML here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("sweep", help="sweep architecture parameters")
    common_io(p)
    common_search(p)
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NODE.ATTR=V1,V2,...",
        help="repeatable; multiple params zip into coupled sweep points",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "oracle-compare", help="check the model against the brute-force oracle"
    )
    common_io(p, mapping=True)
    p.add_argument("--seed", type=int, default=0, help="tensor draw seed")
    p.add_argument(
        "--energy-tol",
        type=float,
        default=None,
        help="also fail when the relative energy gap exceeds this",
    )
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("validate", help="validate inputs without evaluating")
    p.add_argument("--arch", required=True)
    p.add_argument("--workload")
    p.add_argument("--mapping")
    p.add_argument("--layer")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        # a non-finite energy or time fails the report with one error line,
        # so numpy's float warnings on the way there are not printed
        with np.errstate(all="ignore"):
            return args.func(args)
    except _CliError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.code
    except _INPUT_ERRORS as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
