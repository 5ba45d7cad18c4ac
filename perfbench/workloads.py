"""Workload inputs generated from a seed.

Each workload is a list of ``nads`` command lines plus the scenario files
they read. The program sees only those files and argv; everything the seed
decides (the sweep base perturbation, the axis ranges and the command
order) is fixed here, so the same seed always gives the same inputs.

Why these four workloads:

* ``snapshot`` -- the closed-form route on every benchmark scenario. Table
  formatting, branch tracking and the per-point overlap loops dominate; the
  propagator does no work, so it is the bypass case for any ``tdse`` change.
* ``evolve`` -- ``evolve --compare`` on every benchmark scenario: the RK4
  kernel and the doubling controller dominate, plus per-point amplitude
  reconstruction.
* ``sweep`` -- many small series instead of a few large ones: a scenario
  parse per point, the thread pool and per-call overhead, little table
  work. One point row fails by name (a negative damping rate). Not in
  ``BENCHMARK.json``: on a shared 2-vCPU host its two threads make it too
  unsteady to bound (see README.md); it runs by hand.
* ``validate`` -- the named invariant suite: scalar-twin and per-point
  paths, Landau-Zener propagation and the ``validation`` layer, which no
  other workload reaches.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SCENARIO_DIR = BENCH_DIR / "scenarios"

WORKLOADS = ("snapshot", "evolve", "sweep", "validate")

#: Seed used when ``--seed`` is not given; the reference tables were
#: generated with the inputs of this seed.
DEFAULT_SEED = 1

SWEEP_BASE = "constant-damped"

#: Axis shapes of the two sweep commands.
MAXP_COUNTS = (10, 10)
FINALPE_COUNT = 12


@dataclass
class Workload:
    """Generated inputs of one workload run.

    ``commands`` are argv lists for ``nads.cli.main``; ``files`` the scenario
    files they read (set-up loads each once); ``expect`` holds what the
    generator knows about each command's output, for the invariant checks.
    """

    name: str
    seed: int
    files: list[str] = field(default_factory=list)
    commands: list[list[str]] = field(default_factory=list)
    expect: list[dict] = field(default_factory=list)

    def spec(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "files": self.files,
            "commands": self.commands,
            "expect": self.expect,
        }


def scenario_names() -> list[str]:
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


def _copy_scenarios(out_dir: Path, rng: random.Random) -> list[str]:
    names = scenario_names()
    rng.shuffle(names)
    paths = []
    for name in names:
        dest = out_dir / f"{name}.json"
        shutil.copyfile(SCENARIO_DIR / f"{name}.json", dest)
        paths.append(str(dest))
    return paths


def _linspace(start: float, stop: float, count: int) -> list[float]:
    # Mirrors numpy.linspace closely enough to predict which points fail;
    # exact axis values are compared against numpy in the checks.
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _sweep_inputs(out_dir: Path, rng: random.Random, wl: Workload) -> None:
    base = json.loads((SCENARIO_DIR / f"{SWEEP_BASE}.json").read_text())
    system = base["system"]
    system["gamma_g"] = round(system["gamma_g"] * rng.uniform(0.9, 1.1), 6)
    # At 1.1 x the shipped gamma_e the controller accepts half the substeps
    # on the finalPe axis; staying below the shipped value keeps the
    # propagation work the same for every seed.
    system["gamma_e"] = round(system["gamma_e"] * rng.uniform(0.9, 0.98), 6)
    env = base["field"]["envelope"]
    env["omega0"] = round(env["omega0"] * rng.uniform(0.95, 1.05), 6)
    base["name"] = f"{SWEEP_BASE}-seed{wl.seed}"
    path = out_dir / "sweep-base.json"
    path.write_text(json.dumps(base, indent=2, sort_keys=True) + "\n")
    wl.files.append(str(path))

    # maxP over (gamma_e, omega0). Exactly the first gamma_e value is
    # negative, so one row of points fails scenario validation by name.
    ge_stop = round(rng.uniform(0.4, 0.6), 6)
    ge_start = -round(ge_stop * rng.uniform(0.02, 0.1), 6)
    om_start = round(rng.uniform(0.5, 0.7), 6)
    om_stop = round(rng.uniform(1.6, 2.0), 6)
    n_ge, n_om = MAXP_COUNTS
    maxp = {
        "argv": [
            "sweep", str(path),
            "--axis", f"system.gamma_e:{ge_start!r}:{ge_stop!r}:{n_ge}",
            "--axis", f"field.envelope.omega0:{om_start!r}:{om_stop!r}:{n_om}",
            "--reduce", "maxP",
        ],
        "expect": {
            "axes": [[ge_start, ge_stop, n_ge], [om_start, om_stop, n_om]],
            "fail_type": "ValidationError",
            "failing_rows": [
                i * n_om + j
                for i, v in enumerate(_linspace(ge_start, ge_stop, n_ge))
                if v < 0
                for j in range(n_om)
            ],
        },
    }
    # finalPe over gamma_g: the controller settles on n_sub = 32 across this
    # range for every seed, so the work per seed stays steady.
    gg_start = round(rng.uniform(0.0, 0.04), 6)
    gg_stop = round(rng.uniform(0.2, 0.3), 6)
    final = {
        "argv": [
            "sweep", str(path),
            "--axis", f"system.gamma_g:{gg_start!r}:{gg_stop!r}:{FINALPE_COUNT}",
            "--reduce", "finalPe",
        ],
        "expect": {
            "axes": [[gg_start, gg_stop, FINALPE_COUNT]],
            "fail_type": None,
            "failing_rows": [],
        },
    }
    pair = [maxp, final]
    rng.shuffle(pair)
    for item in pair:
        wl.commands.append(item["argv"])
        wl.expect.append(item["expect"])


def generate(name: str, seed: int, out_dir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``out_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name=name, seed=seed)
    if name in ("snapshot", "evolve"):
        wl.files = _copy_scenarios(out_dir, rng)
        extra = ["--compare"] if name == "evolve" else []
        for path in wl.files:
            wl.commands.append([name, path, *extra])
            wl.expect.append({})
    elif name == "sweep":
        _sweep_inputs(out_dir, rng, wl)
    else:
        wl.commands.append(["validate", "--json"])
        wl.expect.append({})
    return wl
