"""The benchmark's three workloads: input generators, timed operations, checks.

Each workload builds ``POOL_ROUNDS`` rounds of inputs from the seed during
set-up; the timed loop runs whole rounds, repeating the pool if it runs out.
An operation either fails (the program raised, crashed, or did not reject an
invalid input the documented way) or returns an output, which ``check``
compares against ``oracle`` (which does not import discordant) or against
properties every correct result has. A wrong output is a problem and makes
the run incorrect; a failed operation is counted in ``failed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import zlib

import numpy as np

import oracle

POOL_ROUNDS = 8
TOL_SEARCH = 1e-6  # optimizer minimum against a grid minimum
TOL_EXACT = 1e-9  # values at a fixed basis, entropies, identities
TOL_LEDGER = 1e-7  # the ledger's own cross-check tolerance
CLI_TIMEOUT_S = 60

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Failed(Exception):
    """The operation did not produce a usable output."""


def _close(problems: list, what: str, got, want, tol: float) -> None:
    if got is None or not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, expected {want!r} within {tol:g}")


def _ordered(problems: list, d1: float, d2: float, d3: float, s_side: float) -> None:
    if not (-TOL_EXACT <= d1 <= s_side + TOL_EXACT):
        problems.append(f"D1 {d1!r} outside [0, S(rho_side) = {s_side!r}]")
    if not (d1 <= d2 + TOL_EXACT and d2 <= d3 + TOL_EXACT):
        problems.append(f"ordering D1 <= D2 <= D3 broken: {d1!r}, {d2!r}, {d3!r}")


class Item:
    def __init__(self, key: str, kind: str, **spec) -> None:
        self.key = key
        self.kind = kind
        self.spec = spec


# --- qubit_analyze -----------------------------------------------------------

def _disk_point(rng) -> tuple[float, float]:
    while True:
        radius = float(np.sqrt(rng.uniform(0.09, 0.96)))
        angle = float(rng.uniform(0, 2 * np.pi))
        b, c = radius * np.cos(angle), radius * np.sin(angle)
        if min(abs(b), abs(c)) >= 0.1:
            return float(b), float(c)


def _signed(rng, low: float, high: float) -> float:
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(low, high))


class QubitAnalyze:
    """In-process ``discordant analyze --json`` with default options over a
    sweep of two-qubit states. Each round: seventeen example_state points
    inside the disk, one product state (c = 0), one state with a maximally
    mixed A marginal (b = 0), and one bell_mixture: a = 1/2 in even rounds,
    another a in odd rounds."""

    name = "qubit_analyze"
    in_process = True

    def __init__(self, seed: int, workdir: str, tracer=None) -> None:
        from discordant.cli import main

        self.main = main if tracer is None else tracer.wrap("cli.analyze", main)
        self.rounds = [self._round(np.random.default_rng([seed, r]), r) for r in range(POOL_ROUNDS)]
        self._oracle_cache: dict = {}

    @staticmethod
    def _round(rng, r: int) -> list[Item]:
        points = [_disk_point(rng) for _ in range(17)]
        points.append((_signed(rng, 0.2, 0.95), 0.0))
        points.append((0.0, _signed(rng, 0.2, 0.95)))
        items = [Item(f"ex{r}.{k}", "example_state", b=b, c=c) for k, (b, c) in enumerate(points)]
        a = float(rng.uniform(0.05, 0.4))
        a = a if rng.uniform() < 0.5 else 1.0 - a
        if r % 2 == 0:
            items.append(Item("bell_half", "bell_mixture", a=0.5))
        else:
            items.append(Item(f"bell{r}", "bell_mixture", a=a))
        return items

    @staticmethod
    def arguments(item: Item) -> list[str]:
        args = ["analyze", "--json", "--family", item.kind]
        for key, value in item.spec.items():
            args += ["--param", f"{key}={value!r}"]
        return args

    def run(self, item: Item):
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                self.main(self.arguments(item), standalone_mode=False)
            return json.loads(buffer.getvalue())
        except SystemExit as stop:
            raise Failed(f"analyze exited with {stop.code}") from None
        except Exception as error:  # the program's own exception escaping analyze
            raise Failed(f"analyze raised {error!r}") from None

    def _expected(self, item: Item) -> dict:
        if item.key not in self._oracle_cache:
            rho = oracle.family_state(item.kind, item.spec)
            dims = (2, 2)
            self._oracle_cache[item.key] = {
                **oracle.entropies(rho, dims),
                "d1": oracle.plane_grid_min(rho, dims, "A", "D1"),
                "d2": oracle.plane_grid_min(rho, dims, "A", "D2"),
                "d3": oracle.d3_at_eigenbasis(rho, dims, "A"),
                "d3sym": oracle.d3_symmetric(rho, dims),
            }
        return self._oracle_cache[item.key]

    def check(self, item: Item, report: dict) -> list[str]:
        want = self._expected(item)
        problems: list[str] = []
        e, d = report["entropies"], report["discord"]
        for got_key, want_key in (("s_a", "s_a"), ("s_b", "s_b"), ("s_ab", "s_ab"), ("mutual_information", "mutual")):
            _close(problems, got_key, e[got_key], want[want_key], TOL_EXACT)
        d1, d2, d3 = d["d1"]["value"], d["d2"]["value"], d["d3"]["value"]
        _close(problems, "D1 vs grid", d1, want["d1"], TOL_SEARCH)
        _close(problems, "D2 vs grid", d2, want["d2"], TOL_SEARCH)
        if item.kind == "bell_mixture":
            _close(problems, "D1 vs 1 - H2(a)", d1, oracle.bell_mixture_discord(item.spec["a"]), TOL_SEARCH)
        _close(problems, "D3 at eigenbasis", d3, want["d3"], TOL_EXACT)
        degenerate = self.degenerate_marginal(item)
        if d["d3"]["diagnostics"]["degenerate_marginal"] != degenerate:
            problems.append(f"D3 degenerate_marginal flag {d['d3']['diagnostics']['degenerate_marginal']}, "
                            f"constructed as {degenerate}")
        if degenerate:
            # A maximally mixed qubit marginal: every basis diagonalizes it.
            _close(problems, "D3 restricted infimum", d["d3"]["diagnostics"]["restricted_infimum"], want["d1"], TOL_SEARCH)
        _close(problems, "D3sym", d["d3sym"]["value"], want["d3sym"], TOL_EXACT)
        _ordered(problems, d1, d2, d3, want["s_a"])
        ledger = report["demon"]
        _close(problems, "Delta_L vs I", ledger["delta_L"], want["mutual"], TOL_LEDGER)
        _close(problems, "Delta_2 vs D2", ledger["delta_2"], d2, TOL_LEDGER)
        for side, verdict in self.expected_verdicts(item).items():
            got = report["classification"][side]["verdict"]
            if got != verdict:
                problems.append(f"classify {side}: got {got}, constructed as {verdict}")
        if report["warnings"]:
            problems.append(f"identity warnings: {report['warnings']}")
        return problems

    @staticmethod
    def degenerate_marginal(item: Item) -> bool:
        """Whether rho_A is I/2 by construction: every Bell mixture, and
        example_state with b = 0."""
        return item.kind == "bell_mixture" or item.spec["b"] == 0.0

    @staticmethod
    def expected_verdicts(item: Item) -> dict:
        if item.kind == "bell_mixture":
            verdict = "ZERO" if item.spec["a"] == 0.5 else "NONZERO"
            return {"A": verdict, "B": verdict}
        # (1/4)(1 + b sz x 1 + c sx x sx) is diagonal on B in the sx basis; on
        # A it is classical only when b = 0 (sx basis) or c = 0 (product).
        zero_a = item.spec["b"] == 0.0 or item.spec["c"] == 0.0
        return {"A": "ZERO" if zero_a else "NONZERO", "B": "ZERO"}


# --- qudit_search ------------------------------------------------------------

# Restart counts (the eigenbasis start comes on top). The d = 4 search runs
# until the 5000-evaluation cap on every start, so it gets a single restart.
# Six restarts average the cost of the (3, 3) searches over seven starts.
# The cheap (2, 4) search keeps the default 20: its value is compared with
# the global grid minimum, and three starts can all end in one local minimum.
RESTARTS = {"r33": 6, "tea2": 6, "r42": 1, "r24": 20}


def degenerate_qutrit_state(rng) -> np.ndarray:
    """A (3, 2) state whose A marginal is exactly diag(p, (1-p)/2, (1-p)/2):
    p |0><0| x sigma plus (1-p) times a two-Bell mixture on span{|1>, |2>} x B."""
    p = float(rng.uniform(0.1, 0.25))
    a = float(rng.uniform(0.1, 0.4))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    plus = np.zeros(6, dtype=complex)
    minus = np.zeros(6, dtype=complex)
    plus[3], plus[4] = 1 / np.sqrt(2), 1 / np.sqrt(2)  # |1>|1> + |2>|0>
    minus[3], minus[4] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    rho = np.zeros((6, 6), dtype=complex)
    rho[:2, :2] = p * sigma
    rho += (1 - p) * (a * np.outer(plus, plus) + (1 - a) * np.outer(minus, minus))
    return rho


def explicit_document(rho, dims) -> str:
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    return json.dumps({"explicit": {"dims": list(dims), "matrix": matrix}})


class QuditSearch:
    """Library calls of optimize_discord (D1 and D2) and discord_d3 on
    measured sides of dimension 2 to 4. Each round: D1 and D2 of a seeded
    random (3, 3) state, of the teahouse ensemble with psi7/psi9 weights
    doubled and of a random (2, 4) state (4x4 conditional blocks); D1 of a
    random (4, 2) state (12 chart angles); D3 of the (3, 3) state; and D3 of
    two (3, 2) states with a degenerate A marginal, which run D3's restricted
    search.

    Sorted by cost a round is 3 cheap items ((2, 4) searches, plain D3), 6 of
    about 0.8 s ((3, 3) and teahouse searches at six restarts, restricted D3)
    and the capped (4, 2) search, so the median and the 75th percentile both
    fall inside the middle cluster rather than on the edge between two."""

    name = "qudit_search"
    in_process = True

    def __init__(self, seed: int, workdir: str, tracer=None) -> None:
        import discordant as dc

        self.dc = dc
        doubled = np.full(9, 1 / 11)
        doubled[6] = doubled[8] = 2 / 11
        self.states = {"tea2": dc.teahouse_ensemble(doubled).density_matrix()}
        self.formula = {"tea2": oracle.teahouse_state(doubled)}  # rho rebuilt by the oracle
        self.rounds = []
        for r in range(POOL_ROUNDS):
            rng = np.random.default_rng([seed, r])
            seeds = {k: int(rng.integers(1 << 31)) for k in ("r33", "r42", "r24")}
            items = []
            for family, dims in (("r33", (3, 3)), ("tea2", (3, 3)), ("r42", (4, 2)), ("r24", (2, 4))):
                key = "tea2" if family == "tea2" else f"{family}.{r}"
                if key not in self.states:
                    self.states[key] = dc.random_state(dims, seed=seeds[family])
                    self.formula[key] = oracle.ginibre_state(dims, seed=seeds[family])
                # The searches' own seed depends on the round alone, so the
                # teahouse searches cost the same in every run and --seed
                # changes only the states.
                config = dc.OptimizerConfig(restarts=RESTARTS[family], seed=r)
                measures = ("D1",) if family == "r42" else ("D1", "D2")
                items += [Item(key, "optimize", measure=m, dims=dims, config=config) for m in measures]
            items.append(Item(f"r33.{r}", "d3", dims=(3, 3)))
            for k in range(2):
                key = f"deg{k}.{r}"
                self.formula[key] = degenerate_qutrit_state(rng)
                document = explicit_document(self.formula[key], (3, 2))
                self.states[key] = dc.document_to_state(dc.loads_document(document))
                items.append(Item(key, "d3", dims=(3, 2)))
            self.rounds.append(items)
        self._d1: dict = {}
        self._oracle_cache: dict = {}

    def run(self, item: Item):
        state = self.states[item.key]
        try:
            if item.kind == "optimize":
                return self.dc.optimize_discord(item.spec["measure"], state, side="A", config=item.spec["config"])
            return self.dc.discord_d3(state, side="A")
        except Exception as error:  # the program's own exception escaping the call
            raise Failed(f"{item.kind} raised {error!r}") from None

    def _expected(self, item: Item) -> dict:
        if item.key not in self._oracle_cache:
            rho = self.formula[item.key]
            dims = item.spec["dims"]
            want = {**oracle.entropies(rho, dims), "rho": rho, "d3": oracle.d3_at_eigenbasis(rho, dims, "A")}
            want["state_error"] = float(np.max(np.abs(self.states[item.key].rho - rho)))
            oracle_seed = zlib.crc32(item.key.encode())
            for measure in ("D1", "D2"):
                if dims[0] == 2:
                    want[measure] = oracle.plane_grid_min(rho, dims, "A", measure)
                else:
                    want[measure] = oracle.random_basis_bound(rho, dims, "A", measure, seed=oracle_seed)
            if item.key.startswith("deg"):
                # rho_A is diagonal, with its degenerate pair at indices 1 and 2.
                want["restricted"] = oracle.plane_grid_min(rho, dims, "A", "D1", plane=(1, 2))
            self._oracle_cache[item.key] = want
        return self._oracle_cache[item.key]

    def check(self, item: Item, report) -> list[str]:
        want = self._expected(item)
        problems: list[str] = []
        dims = item.spec["dims"]
        if want["state_error"] > 1e-12:
            problems.append(f"state differs from the family formula by {want['state_error']:.3e}")
        _close(problems, "value + J vs I", report.value + report.j_value, want["mutual"], TOL_EXACT)
        if item.kind == "d3":
            _close(problems, "D3 at eigenbasis", report.value, want["d3"], TOL_EXACT)
            if item.key.startswith("deg"):
                infimum = report.diagnostics.restricted_infimum
                if not report.diagnostics.degenerate_marginal:
                    problems.append("degenerate marginal not flagged")
                _close(problems, "restricted infimum vs plane grid", infimum, want["restricted"], TOL_SEARCH)
                if infimum is not None and infimum > report.value + TOL_EXACT:
                    problems.append(f"restricted infimum {infimum!r} above D3 {report.value!r}")
            return problems
        measure = item.spec["measure"]
        basis = report.optimal_measurement.basis
        _close(problems, f"{measure} at its reported basis", oracle.value_at(want["rho"], dims, "A", measure, basis),
               report.value, TOL_EXACT)
        if dims[0] == 2:
            _close(problems, f"{measure} vs grid", report.value, want[measure], TOL_SEARCH)
        elif report.value > want[measure] + TOL_EXACT:
            problems.append(f"{measure} {report.value!r} above the best random basis {want[measure]!r}")
        if measure == "D1":
            self._d1[item.key] = report.value
        # Items run D1 before D2 on each state, so D1 is known here for D2;
        # if that D1 call failed, 0 stands in for it.
        _ordered(problems, self._d1.get(item.key, 0.0), report.value, want["d3"], want["s_a"])
        return problems

# --- cli_cold ------------------------------------------------------------------

NAN_FAMILY = '{"family": {"name": "example_state", "parameters": {"b": NaN, "c": 0.5}}}'
NAN_EXPLICIT = '{"explicit": {"dims": [1, 2], "matrix": [[[0.5, 0], [NaN, 0]], [[0, 0], [0.5, 0]]]}}'
MALFORMED = '{"family": {"name": "bell_mixture", "parameters": {"a": 0.25}'
VERDICT_CODES = {"ZERO": 0, "NONZERO": 1, "AMBIGUOUS": 4}


def cli_environment(root: str) -> dict:
    """The CLI children's environment: the package from src, no inherited
    DISCORDANT_* settings, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DISCORDANT_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class CliCold:
    """Sequential ``python -m discordant.cli`` subprocesses of commands that
    never optimize: classify on both sides, states emit --explicit and
    discord --measure D3SYM, with inputs as family flags and as explicit
    documents; plus a malformed document (exit 2), a trace != 1 document
    (exit 3) and two NaN documents that must exit 3."""

    name = "cli_cold"
    in_process = False

    def __init__(self, seed: int, workdir: str, tracer=None) -> None:
        self.workdir = workdir
        self.traced = tracer is not None
        self.env = cli_environment(os.path.dirname(BENCH_DIR))
        self.calls = 0
        fixed = {
            "malformed": MALFORMED,
            "trace": explicit_document(1.1 * oracle.bell_mixture(0.25), (2, 2)),
            "nan_family": NAN_FAMILY,
            "nan_explicit": NAN_EXPLICIT,
        }
        self.paths = {name: self._write(name, text) for name, text in fixed.items()}
        self.rounds = [self._round(np.random.default_rng([seed, r]), r) for r in range(POOL_ROUNDS)]
        warm = self._invoke(["states", "list"])
        if warm[0] != 0:
            raise RuntimeError(f"warm-up CLI call exited {warm[0]}: {warm[2].strip()}")

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return path

    def _round(self, rng, r: int) -> list[Item]:
        b, c = _disk_point(rng)
        family = ["--family", "example_state", "--param", f"b={b!r}", "--param", f"c={c!r}"]
        example = {"b": b, "c": c}
        random_seed = int(rng.integers(1 << 31))
        random_rho = oracle.ginibre_state((2, 3), seed=random_seed)
        random_path = self._write(f"random{r}", explicit_document(random_rho, (2, 3)))
        emit_seed = int(rng.integers(1 << 31))
        p = self.paths
        return [
            Item(f"ex{r}", "classify", args=["classify", "--side", "A", *family], verdict="NONZERO"),
            Item(f"ex{r}", "classify", args=["classify", "--side", "B", *family], verdict="ZERO"),
            Item(f"random{r}", "classify", args=["classify", "--side", "B", "--input", random_path], verdict="NONZERO"),
            Item(f"ex{r}", "emit", args=["states", "emit", "example_state", "--param", f"b={b!r}",
                                         "--param", f"c={c!r}", "--explicit"],
                 family="example_state", parameters=example),
            Item(f"emit{r}", "emit", args=["states", "emit", "random", "--param", "dims=[3, 2]",
                                           "--param", f"seed={emit_seed}", "--explicit"],
                 family="random", parameters={"dims": (3, 2), "seed": emit_seed}),
            Item(f"random{r}", "d3sym", args=["discord", "--measure", "D3SYM", "--json", "--input", random_path],
                 rho=random_rho, dims=(2, 3)),
            Item("malformed", "reject", args=["classify", "--input", p["malformed"]], code=2),
            Item("trace", "reject", args=["classify", "--input", p["trace"]], code=3),
            Item("nan_family", "reject", args=["classify", "--input", p["nan_family"]], code=3),
            Item("nan_explicit", "reject", args=["classify", "--side", "B", "--input", p["nan_explicit"]], code=3),
        ]

    def _invoke(self, args: list[str]):
        if self.traced:
            self.calls += 1
            env = dict(self.env, BENCH_TRACE_FILE=os.path.join(self.workdir, f"spans{self.calls}.json"))
            command = [sys.executable, os.path.join(BENCH_DIR, "trace_cli.py"), *args]
        else:
            env = self.env
            command = [sys.executable, "-m", "discordant.cli", *args]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return done.returncode, done.stdout, done.stderr

    def run(self, item: Item):
        code, out, err = self._invoke(item.spec["args"])
        if "Traceback" in err:
            raise Failed(f"exit {code} with a traceback: {err.strip().splitlines()[-1]}")
        if item.kind == "reject":
            if code != item.spec["code"] or not err.startswith("error:"):
                raise Failed(f"exit {code}, expected {item.spec['code']}: {(out + err).strip()[:160]}")
        elif code not in (0, 1, 4) or (item.kind != "classify" and code != 0):
            raise Failed(f"exit {code}: {err.strip()[:160]}")
        return code, out

    def check(self, item: Item, result) -> list[str]:
        code, out = result
        problems: list[str] = []
        if item.kind == "classify":
            verdict = item.spec["verdict"]
            if code != VERDICT_CODES[verdict] or not out.startswith(verdict + " "):
                problems.append(f"classify: exit {code}, output {out.strip()[:60]!r}, constructed as {verdict}")
        elif item.kind == "emit":
            try:
                explicit = json.loads(out)["explicit"]
                matrix = np.array([[complex(*z) for z in row] for row in explicit["matrix"]])
            except (ValueError, KeyError, TypeError) as error:
                return [f"emit output unreadable: {error!r}"]
            want = oracle.family_state(item.spec["family"], item.spec["parameters"])
            dims = tuple(item.spec["parameters"].get("dims", (2, 2)))
            if tuple(explicit["dims"]) != dims or matrix.shape != want.shape:
                problems.append(f"emit dims {explicit['dims']} for {dims}")
            elif np.max(np.abs(matrix - want)) > 1e-12:
                problems.append(f"emit matrix off the family formula by {np.max(np.abs(matrix - want)):.3e}")
        elif item.kind == "d3sym":
            try:
                report = json.loads(out)
            except ValueError as error:
                return [f"discord output unreadable: {error!r}"]
            rho, dims = item.spec["rho"], item.spec["dims"]
            _close(problems, "D3sym", report["value"], oracle.d3_symmetric(rho, dims), TOL_EXACT)
            _close(problems, "D3sym + J vs I", report["value"] + report["j_value"],
                   oracle.entropies(rho, dims)["mutual"], TOL_EXACT)
        return problems


WORKLOADS = {w.name: w for w in (QubitAnalyze, QuditSearch, CliCold)}
