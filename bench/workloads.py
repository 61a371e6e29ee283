"""The benchmark's four workloads: inputs, operations, output checks, digests.

Every workload draws its operations from a fixed pool of variants.  A
variant number fixes everything an operation computes (search seed,
objective, sweep point, oracle tensor seed, generated layer), so the
output of a variant never depends on the run's ``--seed``; the seed only
picks which variants a run cycles through.  That lets ``digests.json``
record one digest per variant and every run check every operation
against it.  Variants within a workload cost about the same, so the
seed moves the inputs without moving the timing.

Why each workload exists, and what each one should and should not move,
is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from pathlib import Path

import cimeval
import cimeval.cli

# Copy of tests/fixtures/arch_crossbar.yaml, kept here so that editing a
# test fixture never changes what the benchmark measures.
ARCH = """\
--- !Component
name: buffer
class: buffer
temporal_reuse: [Inputs, Outputs]
attributes:
  e_per_bit: 0.0
  width: 8
--- !Component
name: accum
class: adder
coalesce: [Outputs]
attributes:
  e_per_add: 0.0
--- !Component
name: dac
class: dac
no_coalesce: [Inputs]
attributes:
  e_full_scale: 0.4e-12
  model: value_proportional
--- !Component
name: adc
class: adc
no_coalesce: [Outputs]
attributes:
  resolution: 8
--- !Component
name: cell
class: reram_cell
temporal_reuse: [Weights]
spatial: {meshX: 2, meshY: 2}
spatial_reuse: [Inputs, Outputs]
attributes:
  t_read: 10.0e-9
  g_max: 50.0e-6
  vdd: 1.0
"""

# conv3x3 and fc as in tests/fixtures/workload_conv.yaml
CONV3X3 = """\
  - name: conv3x3
    dims: {C: 64, M: 64, P: 56, Q: 56, R: 3, S: 3}
    projections:
      Inputs: [C, P, Q, R, S]
      Weights: [C, M, R, S]
      Outputs: [M, P, Q]
    bits: {Inputs: 8, Weights: 8, Outputs: 24}
    pmf:
      Inputs: {uniform: [0, 127]}
      Weights: {two_point: [-64, 64, 0.5]}
"""
FC = """\
  - name: fc
    dims: {M: 128, K: 256}
    projections:
      Inputs: [K]
      Weights: [K, M]
      Outputs: [M]
    bits: {Inputs: 4, Weights: 4, Outputs: 16}
    pmf:
      Inputs: {uniform: [0, 15]}
      Weights: {delta: -3}
    signed: {Inputs: false}
"""
MATVEC = """\
  - name: matvec
    dims: {{M: {n}, K: {n}}}
    projections:
      Inputs: [K]
      Weights: [K, M]
      Outputs: [M]
    bits: {{Inputs: 8, Weights: 8, Outputs: 24}}
    pmf:
      Inputs: {{uniform: [0, 255]}}
      Weights: {{two_point: [-32, 32, 0.5]}}
    signed: {{Inputs: false}}
"""

# The 10,240-MAC 1-bit layer of acceptance criterion 2: its 16-bit Outputs
# have no declared PMF, so every action context enumerates 65,536 levels.
MID = """\
layers:
  - name: mid
    dims: {M: 4, K: 64, N: 40}
    projections: {Inputs: [K, N], Weights: [K, M], Outputs: [M, N]}
    bits: {Inputs: 1, Weights: 1, Outputs: 16}
    pmf: {Inputs: {two_point: [0, 1, 0.25]}, Weights: {delta: 1}}
"""
# 8-bit layers with 24-bit undeclared Outputs, which the engine does not
# enumerate, so the oracle's nest walk dominates.  One layer per PMF pair.
B8_PMFS = (
    ("{uniform: [0, 127]}", "{two_point: [-64, 64, 0.5]}"),
    ("{uniform: [0, 255]}", "{uniform: [-128, 127]}"),
    ("{two_point: [0, 255, 0.3]}", "{two_point: [-32, 96, 0.25]}"),
    ("{uniform: [16, 200]}", "{delta: 17}"),
)
B8_LAYER = """\
  - name: b8_{k}
    dims: {{M: 4, K: 64, N: {n}}}
    projections: {{Inputs: [K, N], Weights: [K, M], Outputs: [M, N]}}
    bits: {{Inputs: 8, Weights: 8, Outputs: 24}}
    pmf: {{Inputs: {pin}, Weights: {pw}}}
    signed: {{Inputs: false}}
"""
NEST_MAP = """\
nodes:
  buffer:
    - {{dim: M, bound: 2, kind: temporal}}
    - {{dim: K, bound: 32, kind: temporal}}
    - {{dim: N, bound: {n}, kind: temporal}}
  cell:
    - {{dim: M, bound: 2, kind: spatialX}}
    - {{dim: K, bound: 2, kind: spatialY}}
"""

OBJECTIVES = ("energy", "latency", "edp")
SWEEP_MESHES = ((2, 2), (4, 4), (8, 8), (4, 8), (8, 4), (16, 16), (2, 8), (8, 2))
SWEEP_SLICES = ((1, 1), (2, 2), (4, 4), (1, 4), (4, 1), (2, 4), (4, 2), (1, 2))
SWEEP_LAYERS = ("conv3x3", "fc", "matvec")
SWEEP_TAIL = ("best_energy_j", "energy_per_mac_j", "cycles", "utilization", "area_m2")

ORACLE_GAP_TOL = 0.01


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One workload: a variant pool, the inputs, an operation and its check."""

    name = ""
    pool = 64
    cycle = 8

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def files(self) -> dict[str, str]:
        """Input files to write, by file name."""
        raise NotImplementedError

    def groups(self) -> list[list[str]]:
        """``cimeval validate`` arguments that check every input file."""
        raise NotImplementedError

    def load(self, paths: dict[str, Path]) -> None:
        """Parse the written inputs for the operations."""
        raise NotImplementedError

    def specs(self, seed: int) -> list[int]:
        """The variants one run cycles through, picked by the seed."""
        rng = random.Random(f"{self.name}/{seed}")
        return rng.sample(range(self.pool), 2 if self.smoke else self.cycle)

    def op(self, v: int):
        raise NotImplementedError

    def check(self, v: int, out) -> list[str]:
        """Problems with one operation's output; empty when it is correct."""
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def report_bytes(self, out) -> int:
        return 0

    def gap(self, out) -> float | None:
        return None


class SearchSampled(Workload):
    name = "search_sampled"
    pool = 48
    cycle = 6

    def files(self):
        return {"arch.yaml": ARCH, "conv.yaml": "layers:\n" + CONV3X3}

    def groups(self):
        return [["--arch", "arch.yaml", "--workload", "conv.yaml"]]

    def load(self, paths):
        self.arch = cimeval.parse_arch(paths["arch.yaml"].read_text())
        self.layer = cimeval.parse_workload(paths["conv.yaml"].read_text())[0]
        self.budget = 500 if self.smoke else 20_000

    def specs(self, seed):
        # the same number of searches per objective in every run
        rng = random.Random(f"{self.name}/{seed}")
        per = 1 if self.smoke else self.cycle // len(OBJECTIVES)
        picks = [rng.sample(range(self.pool // 3), per) for _ in OBJECTIVES]
        return [3 * j + o for row in zip(*picks) for o, j in enumerate(row)]

    def op(self, v):
        config = cimeval.MapperConfig(
            objective=OBJECTIVES[v % 3], budget=self.budget, seed=v
        )
        return cimeval.search(self.arch, self.layer, config)

    def check(self, v, found):
        if found is None:
            return ["search found no valid mapping"]
        errors = []
        diag = cimeval.check_valid(self.arch, self.layer, found.mapping)
        if not diag.ok:
            errors.append("winner fails check_valid: " + "; ".join(diag.errors))
        fresh = cimeval.LayerEvaluator(self.arch, self.layer).evaluate(found.mapping)
        if fresh.energy_j != found.result.energy_j:
            errors.append(
                f"fresh evaluate gives {fresh.energy_j!r} J, "
                f"search reported {found.result.energy_j!r} J"
            )
        return errors

    def digest(self, found):
        r = found.result
        return _sha(
            f"{found.index}|{r.energy_j!r}|{r.latency_s!r}|{found.fingerprint}|"
            f"{found.valid}|{found.evaluated}|{found.space_total}"
        )


class DseSweep(Workload):
    name = "dse_sweep"

    def files(self):
        n = 64 if self.smoke else 4096
        text = "layers:\n" + CONV3X3 + FC + MATVEC.format(n=n)
        return {"arch.yaml": ARCH, "sweep.yaml": text}

    def groups(self):
        return [["--arch", "arch.yaml", "--workload", "sweep.yaml"]]

    def load(self, paths):
        self.paths = paths
        self.budget = 20 if self.smoke else 200

    def specs(self, seed):
        # every run visits each mesh once and each slice pair once, so the
        # seed changes the points but not the mix of their costs
        rng = random.Random(f"{self.name}/{seed}")
        n = 2 if self.smoke else len(SWEEP_MESHES)
        meshes = rng.sample(range(len(SWEEP_MESHES)), n)
        slices = rng.sample(range(len(SWEEP_SLICES)), n)
        return [m + len(SWEEP_MESHES) * s for m, s in zip(meshes, slices)]

    @staticmethod
    def point(v: int) -> list[tuple[str, int]]:
        mesh_x, mesh_y = SWEEP_MESHES[v % 8]
        in_w, w_w = SWEEP_SLICES[(v // 8) % 8]
        return [
            ("cell.mesh_x", mesh_x),
            ("cell.mesh_y", mesh_y),
            ("cell.input_slice_width", in_w),
            ("cell.weight_slice_width", w_w),
            ("adc.resolution", 4 + v % 5),
        ]

    def op(self, v):
        argv = [
            "sweep",
            "--arch", str(self.paths["arch.yaml"]),
            "--workload", str(self.paths["sweep.yaml"]),
            "--budget", str(self.budget),
            "--seed", str(v),
            "--jobs", "1",
        ]
        for path, value in self.point(v):
            argv += ["--param", f"{path}={value}"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cimeval.cli.main(argv)
        return code, buf.getvalue()

    def check(self, v, out):
        code, text = out
        if code != 0:
            return [f"sweep exited {code}"]
        point = self.point(v)
        columns = ["layer"] + [p for p, _ in point] + list(SWEEP_TAIL)
        lines = text.split("\n")
        expected = ["# cimeval-sweep-v1 " + ",".join(columns), ",".join(columns)]
        if lines[:2] != expected or lines[-1] != "":
            return ["sweep CSV header or line ending differs from the schema"]
        rows = [line.split(",") for line in lines[2:-1]]
        if [r[0] for r in rows] != list(SWEEP_LAYERS):
            return [f"sweep CSV rows {[r[0] for r in rows]}, want {SWEEP_LAYERS}"]
        errors = []
        for row in rows:
            if len(row) != len(columns):
                errors.append(f"row {row[0]} has {len(row)} of {len(columns)} columns")
                continue
            if row[1 : 1 + len(point)] != [repr(val) for _, val in point]:
                errors.append(f"row {row[0]} does not echo the sweep point")
            energy, per_mac, cycles, util, area = row[1 + len(point) :]
            try:
                nums = [float(energy), float(per_mac), float(util), float(area)]
                cycles_n = int(cycles)
            except ValueError:
                errors.append(f"row {row[0]} has a non-numeric cell")
                continue
            if not all(math.isfinite(x) and x > 0 for x in nums) or cycles_n < 1:
                errors.append(f"row {row[0]} has a non-positive metric")
            elif nums[2] > 1.0:
                errors.append(f"row {row[0]} reports utilization above 1")
        return errors

    def digest(self, out):
        return _sha(out[1])

    def report_bytes(self, out):
        return len(out[1].encode())


class OracleCheck(Workload):
    name = "oracle_check"

    def files(self):
        n = 40 if self.smoke else 184
        b8 = "layers:\n" + "".join(
            B8_LAYER.format(k=k, n=n, pin=pin, pw=pw)
            for k, (pin, pw) in enumerate(B8_PMFS)
        )
        return {
            "arch.yaml": ARCH,
            "mid.yaml": MID,
            "mid_map.yaml": NEST_MAP.format(n=40),
            "b8.yaml": b8,
            "b8_map.yaml": NEST_MAP.format(n=n),
        }

    def groups(self):
        return [
            ["--arch", "arch.yaml", "--workload", w, "--mapping", m]
            for w, m in (("mid.yaml", "mid_map.yaml"), ("b8.yaml", "b8_map.yaml"))
        ]

    def load(self, paths):
        self.arch = cimeval.parse_arch(paths["arch.yaml"].read_text())
        self.mid = cimeval.parse_workload(paths["mid.yaml"].read_text())[0]
        self.mid_map = cimeval.parse_mapping(paths["mid_map.yaml"].read_text())
        self.b8 = cimeval.parse_workload(paths["b8.yaml"].read_text())
        self.b8_map = cimeval.parse_mapping(paths["b8_map.yaml"].read_text())

    def specs(self, seed):
        # even variants price the 1-bit layer, odd ones an 8-bit layer; a
        # run alternates them in equal numbers and visits each 8-bit layer
        # once
        rng = random.Random(f"{self.name}/{seed}")
        half = 1 if self.smoke else len(B8_PMFS)
        mids = rng.sample(range(0, self.pool, 2), half)
        rounds = self.pool // (2 * len(B8_PMFS))
        b8s = [2 * (k + len(B8_PMFS) * rng.randrange(rounds)) + 1 for k in range(half)]
        rng.shuffle(b8s)
        return [v for pair in zip(mids, b8s) for v in pair]

    def op(self, v):
        if v % 2 == 0:
            layer, mapping = self.mid, self.mid_map
        else:
            layer, mapping = self.b8[(v // 2) % len(self.b8)], self.b8_map
        ev = cimeval.LayerEvaluator(self.arch, layer)
        model = ev.evaluate(mapping)
        oracle = cimeval.oracle_evaluate(self.arch, layer, mapping, seed=v)
        return ev.table.fingerprint, model, oracle

    def check(self, v, out):
        _, model, oracle = out
        errors = []
        if model.counts != oracle.counts:
            diff = sorted(
                k
                for k in set(model.counts) | set(oracle.counts)
                if model.counts.get(k) != oracle.counts.get(k)
            )
            errors.append(f"oracle counts differ at {diff}")
        if self.gap(out) > ORACLE_GAP_TOL:
            errors.append(f"energy gap {self.gap(out):.4%} above {ORACLE_GAP_TOL:.0%}")
        return errors

    def gap(self, out):
        _, model, oracle = out
        return abs(model.energy_j - oracle.energy_j) / model.energy_j

    def digest(self, out):
        fingerprint, model, oracle = out
        return _sha(
            f"{model.layer}|{model.energy_j!r}|{oracle.energy_j!r}|{fingerprint}|"
            f"{sorted(oracle.counts.items())}"
        )


class LibraryEnumerate(Workload):
    name = "library_enumerate"

    def files(self):
        return {"arch.yaml": ARCH, "conv.yaml": "layers:\n" + CONV3X3}

    def groups(self):
        return [["--arch", "arch.yaml", "--workload", "conv.yaml"]]

    def load(self, paths):
        self.arch = cimeval.parse_arch(paths["arch.yaml"].read_text())
        self.layer = cimeval.parse_workload(paths["conv.yaml"].read_text())[0]
        self.budget = 200 if self.smoke else 2_000
        self.space = cimeval.MappingSpace(self.arch, self.layer)

    def op(self, v):
        ev = cimeval.LayerEvaluator(self.arch, self.layer)
        priced = [
            (i, ev.evaluate(m).energy_j)
            for i, m in cimeval.enumerate_mappings(
                self.arch, self.layer, budget=self.budget, seed=v
            )
        ]
        return ev.table.fingerprint, priced

    def check(self, v, out):
        # the scan path's validity check must accept exactly the same
        # candidates as check_valid did
        space = self.space
        fast = [
            i for i in space.draw_indices(self.budget, v)
            if space.bounds_ok(space.bounds_at(i))
        ]
        found = [i for i, _ in out[1]]
        if found != fast:
            return [f"{len(found)} valid mappings, bounds_ok accepts {len(fast)}"]
        return []

    def digest(self, out):
        fingerprint, priced = out
        return _sha(f"{len(priced)}|{fingerprint}|{priced!r}")


WORKLOADS = {
    w.name: w for w in (SearchSampled, DseSweep, OracleCheck, LibraryEnumerate)
}
