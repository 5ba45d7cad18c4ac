"""The command line in fresh interpreters: what only a process shows.

For each of two hash seeds, one child interpreter runs every command of
:data:`COMMANDS` in turn through the ``__main__`` block of ``nads.cli``
(what ``python -m nads.cli`` runs), with its stdout and stderr on files.
The tests compare the bytes of the two children, a table on stdout with
its ``--out`` file, and each command's exit status and stderr. The
children import ``nads`` from where this process does: the installed
package or ``src``. Error messages are tested in-process, in
``test_scenario_cli`` and ``test_scenario_messages``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from nads.scenario import shipped_path

from test_scenario_cli import child_env, fast_coupling_doc, write_doc

#: Runs each command of the JSON object argv[2] as ``python -m nads.cli``
#: would, with stdout and stderr on ``<name>.out`` and ``<name>.err`` in the
#: directory argv[1], and prints the exit statuses as JSON.
CHILD = """
import json, os, runpy, sys
root, commands = sys.argv[1], json.loads(sys.argv[2])
statuses = {}
for name, argv in commands.items():
    sys.argv = ["nads", *argv]
    saved = os.dup(1), os.dup(2)
    with open(os.path.join(root, name + ".out"), "wb") as out, \\
         open(os.path.join(root, name + ".err"), "wb") as err:
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
        try:
            runpy.run_module("nads.cli", run_name="__main__")
        except SystemExit as exc:
            statuses[name] = exc.code
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            for fd, copy in enumerate(saved, 1):
                os.dup2(copy, fd)
                os.close(copy)
print(json.dumps(statuses))
"""

HASH_SEEDS = ("1", "2")
SECH = str(shipped_path("sech-damped"))
SLOW = str(shipped_path("gaussian-slow-adiabatic"))  # two expansion chunks
FAST_COUPLING = "fast-coupling.json"  # stands for the file of fast_coupling_doc()

#: name: (argv, exit status, stderr). ``--out`` ends the argv of a table
#: written to ``<name>.csv`` beside the child's stdout.
COMMANDS = {
    "validate-json": (["validate", "--json"], 0, ""),
    "snapshot-sech-damped": (["snapshot", SECH, "--out"], 0, ""),
    "evolve-sech-chirped": (["evolve", str(shipped_path("sech-chirped")), "--compare",
                             "--out"], 0, ""),
    "sweep-beta": (["sweep", str(shipped_path("gaussian-chirped-damped")), "--axis",
                    "field.phase.beta:0:0.25:6", "--reduce", "maxP", "--out"], 0, ""),
    "evolve-constant-detuned": (["evolve", str(shipped_path("constant-detuned")),
                                 "--compare"], 0, ""),
    "snapshot-constant-detuned": (["snapshot", str(shipped_path("constant-detuned"))], 0, ""),
    "evolve-slow": (["evolve", SLOW, "--compare"], 0, ""),
    "snapshot-slow": (["snapshot", SLOW], 0, ""),
    "evolve-slow-out": (["evolve", SLOW, "--compare", "--out"], 0, ""),
    "snapshot-slow-out": (["snapshot", SLOW, "--out"], 0, ""),
    # 48 RK4 runs, the command whose allocations the heap policy changes
    # most; then batches of n_sub 2, 4 and 8 with failing rows, and points
    # sharing their coupling samples.
    "sweep-finalPe": (["sweep", SECH, "--axis", "system.gamma_e:0:0.3:8", "--axis",
                       "field.envelope.omega0:0.5:2:6", "--reduce", "finalPe", "--out"], 0, ""),
    "sweep-groups": (["sweep", SECH, "--axis", "system.gamma_e:-0.05:0.3:8", "--axis",
                      "field.envelope.omega0:0.5:2:6", "--reduce", "finalPe", "--out"], 0, ""),
    "sweep-shared": (["sweep", SECH, "--axis", "field.phase.beta:-0.05:0.05:8", "--axis",
                      "system.gamma_e:0:0.3:6", "--reduce", "finalPe", "--out"], 0, ""),
    "sweep-step-rule": (["sweep", SECH, "--axis", "field.envelope.tau:5:20:4",
                         "--reduce", "maxP", "--out"], 0, ""),
    "sweep-json-log": (["sweep", SECH, "--axis", "system.gamma_e:-0.05:0.3:6", "--axis",
                        "field.envelope.omega0:0.5:2:4:log", "--reduce", "finalPe",
                        "--json"], 0, ""),
    "bad-reduce": (["sweep", SECH, "--axis", "system.gamma_e:0:0.3:4", "--reduce", "finalpe"],
                   1, "error: --reduce must be one of ['finalNorm', 'finalPe', 'finalPg', "
                      "'maxP'], got 'finalpe'; did you mean 'finalPe'?\n"),
    "fast-coupling": (["evolve", FAST_COUPLING], 2,
                      "numerical error: a pass at 500000000 substeps per output interval "
                      "would build 500000000 substeps, beyond the limit of 67108864 per pass\n"),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{hash seed: (directory of the outputs, {name: exit status})}."""
    fast = write_doc(tmp_path_factory.mktemp("docs"), fast_coupling_doc(), FAST_COUPLING)
    roots, children = {}, {}
    for seed in HASH_SEEDS:
        root = roots[seed] = tmp_path_factory.mktemp(f"seed{seed}")
        commands = {}
        for name, (argv, _, _) in COMMANDS.items():
            argv = [fast if arg == FAST_COUPLING else arg for arg in argv]
            commands[name] = argv + [str(root / f"{name}.csv")] * (argv[-1] == "--out")
        children[seed] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(root), json.dumps(commands)],
            env=child_env(PYTHONHASHSEED=seed), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
    statuses = {}
    for seed, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        statuses[seed] = json.loads(out)
    return {seed: (roots[seed], statuses[seed]) for seed in HASH_SEEDS}


def outputs(root, name: str) -> dict[str, bytes]:
    """The stdout, stderr and ``--out`` file of a command, by suffix."""
    return {suffix: (root / f"{name}.{suffix}").read_bytes()
            for suffix in ("out", "err", "csv") if (root / f"{name}.{suffix}").exists()}


@pytest.mark.parametrize("name", COMMANDS)
def test_same_bytes_under_both_hash_seeds(runs, name):
    (root_a, statuses_a), (root_b, statuses_b) = runs.values()
    assert statuses_a[name] == statuses_b[name]
    assert outputs(root_a, name) == outputs(root_b, name)


@pytest.mark.parametrize("name", COMMANDS)
def test_exit_status_and_stderr(runs, name):
    root, statuses = runs[HASH_SEEDS[0]]
    argv, status, stderr = COMMANDS[name]
    found = outputs(root, name)
    assert statuses[name] == status
    assert found["err"].decode() == stderr
    # A table goes to its --out file or to stdout; a failure writes none.
    to_file = argv[-1] == "--out"
    assert ("csv" in found) == (to_file and not status)
    assert (found["out"] == b"") == (to_file or bool(status))


@pytest.mark.parametrize("command", ["evolve", "snapshot"])
def test_stdout_is_the_out_file(runs, command):
    root, _ = runs[HASH_SEEDS[0]]
    streamed = outputs(root, f"{command}-slow")["out"]
    assert streamed == outputs(root, f"{command}-slow-out")["csv"]
    assert streamed.startswith(b"# ") and streamed.endswith(b"\n")
