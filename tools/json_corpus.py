"""Byte-identity corpus for the ``discordant`` CLI.

Runs a fixed list of CLI calls in process through click's ``CliRunner`` and
prints one line per call: its exit code, a 16-hex sha256 of its stdout and
stderr, and the call. The last line is the sha256 of all of those lines. Two
checkouts that print the same total gave the same exit code, stdout and
stderr on every call, so a change that claims byte-identical output is
checked by running this on both and comparing totals (and, where they
differ, the lines).

    python tools/json_corpus.py

The package is imported from the ``src`` directory next to this script. The
searches run at ``--restarts 2``. Human ``analyze`` output is left out, since
its ``elapsed:`` line is wall time. The sources include states whose A
marginal has a null space, states whose marginals are degenerate, and an
explicit document whose A marginal is a near-degenerate chain. The error calls
include documents that each fail one state check.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import numpy as np  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from discordant.cli import main  # noqa: E402

RESTARTS = ("--restarts", "2")


def _family(name: str, **parameters) -> tuple[str, ...]:
    args = ("--family", name)
    for key, value in parameters.items():
        args += ("--param", f"{key}={json.dumps(value)}")
    return args


# Family sources: analyzed as families, and emitted as explicit documents that
# are analyzed again through --input.
FAMILY_SOURCES = {
    "example": _family("example_state", b=0.5, c=0.5),
    "example_b0": _family("example_state", b=0.0, c=0.5),
    "bell_0.25": _family("bell_mixture", a=0.25),
    "bell_0.5": _family("bell_mixture", a=0.5),
    "bell_1": _family("bell_mixture", a=1.0),
    "classical_diagonal": _family("classical_classical", weights=[[0.5, 0.0], [0.0, 0.5]]),
    # rho_A = diag(1, 0): the A marginal has a null space.
    "classical_null_a": _family("classical_classical", weights=[[0.5, 0.5], [0.0, 0.0]]),
    "classical_null_b": _family("classical_classical", weights=[[0.3, 0.0], [0.7, 0.0]]),
    "zero_discord_degenerate": _family(
        "zero_discord", p=[0.5, 0.5],
        basis_a=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        sigmas_b=[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                  [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]],
    ),
    "random_2x2_rank1": _family("random", dims=[2, 2], rank=1, seed=3),
    "random_2x2_rank2": _family("random", dims=[2, 2], rank=2, seed=4),
    "random_2x3": _family("random", dims=[2, 3], seed=5),
    # A pure (3, 2) state: rho_A has rank 2 on a 3-dimensional space.
    "random_3x2_pure": _family("random", dims=[3, 2], rank=1, seed=6),
    "random_3x2_rank3": _family("random", dims=[3, 2], rank=3, seed=9),
    "random_2x4": _family("random", dims=[2, 4], seed=10),
    "random_3x3": _family("random", dims=[3, 3], seed=11),
    "teahouse": _family("teahouse_ensemble"),
    # A (3, 2) zero-discord state whose A marginal is degenerate: diag(0.4, 0.4, 0.2).
    "zero_discord_3x2": _family(
        "zero_discord", p=[0.4, 0.4, 0.2],
        basis_a=[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                 [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
        sigmas_b=[[[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]],
                  [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
                  [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
    ),
    "random_1x2": _family("random", dims=[1, 2], seed=7),
    "random_2x1": _family("random", dims=[2, 1], seed=8),
}


def _chain_document() -> str:
    """An explicit (3, 2) document whose A marginal is the near-degenerate chain
    1/3 + (6e-9, -6e-9, 0): (1/3) sum_k |f_k><f_k| x sigma_k, classical in a
    real basis f, plus diag(6e-9, -6e-9, 0) x I/2."""
    f = [np.array([1, 1, 1]) / np.sqrt(3), np.array([0, 1, -1]) / np.sqrt(2), np.array([-2, 1, 1]) / np.sqrt(6)]
    b = [np.array([1, 0]), np.array([0, 1]), np.array([1, 1]) / np.sqrt(2)]
    rho = sum(np.kron(np.outer(fk, fk), np.outer(bk, bk) / 2 + np.eye(2) / 4) for fk, bk in zip(f, b)) / 3
    rho = rho + np.kron(np.diag([6e-9, -6e-9, 0.0]), np.eye(2) / 2)
    matrix = [[[float(x), 0.0] for x in row] for row in rho]
    return json.dumps({"explicit": {"dims": [3, 2], "matrix": matrix}})


def _explicit(rows: list[list[float]]) -> str:
    """An explicit (1, 2) document with the given real entries."""
    return json.dumps({"explicit": {"dims": [1, 2], "matrix": [[[x, 0.0] for x in row] for row in rows]}})


ERROR_CALLS = [
    ("analyze", "--family", "bell_mixture", "--param", "a=0.3", "--restarts", "0"),
    ("analyze", "--family", "bell_mixture", "--param", "a=0.3", "--seed", "-1"),
    ("discord", "--family", "bell_mixture", "--param", "a=x"),
    ("classify", "--family", "random", "--param", "dims=[2,2]", "--param", "rank=2.5"),
    ("classify", "--family", "random", "--param", "dims=[2,2]", "--param", "seed=NaN"),
    ("demon", "--family", "bell_mixture", "--param", "a=0.3", "--kt", "nan"),
    ("demon", "--family", "bell_mixture", "--param", "a=1", "--kt", "1e308", "--json", *RESTARTS),
    ("classify", "--family", "example_state", "--param", "b=1", "--param", "c=1"),
    ("classify", "--input", "{missing}"),
    ("classify", "--input", "{malformed}"),
    ("classify", "--input", "{nan}"),
    ("table1", "--param", "a=2", *RESTARTS),
    # Documents that parse but fail one state check each: exit 3, one error line.
    ("classify", "--input", "{non_hermitian}"),
    ("classify", "--input", "{negative}"),
    ("classify", *_family("random", dims=[2, 2], rank=5)),
    ("classify", *_family("random", dims=[2, 2, 5])),
    ("classify", *_family("zero_discord", p=[0.5, 0.5],
                          basis_a=[[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
                          sigmas_b=[[[[1.0, 0.0]]], [[[1.0, 0.0]]]])),
    ("classify", *_family("zero_discord", p=[0.5, 0.4],
                          basis_a=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                          sigmas_b=[[[[1.0, 0.0]]], [[[1.0, 0.0]]]])),
    ("classify", *_family("classical_classical", weights=[0.5, 0.5])),
    ("classify", *_family("teahouse_ensemble", weights=[0.125] * 8)),
    ("classify", *_family("teahouse_ensemble", weights=[float("nan")] * 9)),
]


def _source_calls(source: tuple[str, ...]) -> list[tuple[str, ...]]:
    calls = [
        ("analyze", *source, *RESTARTS, "--json"),
        ("demon", *source, *RESTARTS, "--json"),
    ]
    for side in ("A", "B"):
        calls.append(("classify", *source, "--side", side, "--json"))
        for measure in ("D1", "D2", "D3", "D3SYM"):
            calls.append(("discord", *source, "--measure", measure, "--side", side, *RESTARTS, "--json"))
    return calls


def _calls(scratch: str) -> list[tuple[tuple[str, ...], str | None]]:
    """(call, file that receives its stdout or None) in run order."""
    calls: list[tuple[str, ...]] = [("states", "list")]
    saved = {}
    for label, source in FAMILY_SOURCES.items():
        name, parameters = source[1], source[2:]
        explicit = os.path.join(scratch, f"{label}.json")
        calls.append(("states", "emit", name, *parameters))
        calls.append(("states", "emit", name, *parameters, "--explicit"))
        saved[len(calls) - 1] = explicit
        calls += _source_calls(source)
        calls += _source_calls(("--input", explicit))
    bell = FAMILY_SOURCES["bell_0.25"]
    # Blocks that fail to commute by 5e-5 while the discord is 2.9e-8.
    near_half = _family("bell_mixture", a=0.5001)
    calls += [
        ("states", "emit", "bell_mixture", "--param", "a=0.25", "-o", os.path.join(scratch, "out.json")),
        ("classify", "--input", os.path.join(scratch, "out.json")),
        ("classify", *bell),
        ("classify", *near_half, "--side", "A", "--json"),
        ("classify", *near_half, "--side", "B", "--json"),
        # Reordering inside the chain's one group puts a 1.2e-8 step up in it.
        ("discord", "--input", "{chain}", "--measure", "D3", "--json"),
        ("classify", "--input", "{chain}", "--json"),
        ("discord", *bell, *RESTARTS),
        ("discord", *FAMILY_SOURCES["example_b0"], "--measure", "D3", *RESTARTS),
        ("demon", *bell, "--kt", "2.5", *RESTARTS),
        ("demon", *bell, "--kt", "2.5", *RESTARTS, "--json"),
        ("analyze", *FAMILY_SOURCES["example"], "--json"),
        ("table1", *RESTARTS),
        ("table1", *RESTARTS, "--json"),
        ("table1", *RESTARTS, "--param", "a=0.3", "--json"),
        *ERROR_CALLS,
    ]
    return [(call, saved.get(index)) for index, call in enumerate(calls)]


def main_corpus() -> int:
    runner = CliRunner()
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        texts = {
            "{malformed}": "{not json",
            "{nan}": '{"family": {"name": "bell_mixture", "parameters": {"a": NaN}}}',
            "{chain}": _chain_document(),
            "{non_hermitian}": _explicit([[0.5, 0.1], [0.0, 0.5]]),
            "{negative}": _explicit([[1.5, 0.0], [0.0, -0.5]]),
        }
        files = {key: os.path.join(scratch, key.strip("{}") + ".json") for key in ("{missing}", *texts)}
        for key, text in texts.items():
            with open(files[key], "w", encoding="utf-8") as handle:
                handle.write(text)
        # The temporary directory's name differs between runs; it is replaced
        # in the printed calls and in the hashed output.
        prefix = (scratch + os.sep).encode()
        for call, save in _calls(scratch):
            result = runner.invoke(main, [files.get(arg, arg) for arg in call])
            if save is not None:
                with open(save, "wb") as handle:
                    handle.write(result.stdout_bytes)
            output = result.stdout_bytes + b"\0" + result.stderr_bytes
            digest = hashlib.sha256(output.replace(prefix, b"<tmp>/")).hexdigest()[:16]
            shown = " ".join(call).replace(scratch + os.sep, "<tmp>/")
            lines.append(f"{result.exit_code} {digest} {shown}")
            print(lines[-1], flush=True)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    print(f"total {total} over {len(lines)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main_corpus())
