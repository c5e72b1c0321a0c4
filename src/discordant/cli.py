"""Command-line front end: analyze states, classify discord, reproduce tables.

Exit codes: 0 success (and ZERO for classify), 1 NONZERO (classify), 2 parse
error (a malformed document or family parameter, an --input file that cannot be
read or is not UTF-8, an -o file that cannot be written, or an optimizer option
out of range, such as a negative seed), 3 validation error (an invalid state,
a random family value that is not integral, such as a NaN, infinite or null
seed or rank, a table1 parameter out of range, or any other library error
raised after loading), 4 AMBIGUOUS (classify). One boundary, ``main``'s
invoke, maps library errors to exit codes. Optimizer settings come from the
--seed and --restarts flags only; the simplex tolerance is the fixed
``SIMPLEX_TOLERANCE``. --json writes the library's report dataclasses as they
are, with measurement bases as rows of [re, im] pairs; analyze re-derives no
identity at run time, and its ``warnings`` list is always empty. Each printed
search that did not converge adds one ``warning:`` line on stderr.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

import click
import numpy as np

from .correlations import state_entropies
from .demon import WorkLedger, work_ledger
from .discord import (
    SIMPLEX_TOLERANCE,
    DiscordReport,
    OptimizerConfig,
    classify_zero_discord,
    bell_mixture_discord_closed_form,
    discord_d3,
    discord_d3_symmetric,
    optimize_discord,
)
from .documents import (
    FAMILIES,
    StateDocument,
    _pair_matrix,
    document_to_state,
    dumps_document,
    loads_document,
    parse_document,
    state_to_document,
)
from .exceptions import DiscordantError, DocumentError, InvalidParameters
from .states import BipartiteState, classical_classical_state, teahouse_ensemble

EXIT_NONZERO = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_AMBIGUOUS = 4

CLOSED_FORM_NOTE = (
    "Bell-mixture closed form: D(a) = 1 + a*log2(a) + (1-a)*log2(1-a) = 1 - H2(a), "
    "which vanishes at a = 1/2 and matches the measurement optimizer; the sometimes "
    "transcribed variant 'a*log2(a) - (1-a)*log2(a) + 1' does not vanish at a = 1/2 "
    "and is not used."
)


def _parse_param(pair: str):
    if "=" not in pair:
        raise DocumentError(f"--param expects KEY=VALUE, got {pair!r}")
    key, _, raw = pair.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _resolve_document(input_path, family, params) -> StateDocument:
    if (input_path is None) == (family is None):
        raise DocumentError("provide exactly one of --input or --family")
    if input_path is not None:
        if params:
            raise DocumentError("--param only applies together with --family")
        if input_path == "-":
            return loads_document(sys.stdin.read())
        with open(input_path, "r", encoding="utf-8") as handle:
            return loads_document(handle.read())
    parameters = dict(_parse_param(pair) for pair in params)
    return parse_document({"family": {"name": family, "parameters": parameters}})


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the current ``sys.stdout``, or ``sys.stderr`` for
    ``err``. Without a stream, click caches the one it looks up in a weak map
    whose value is the stream itself, so a redirected stream is never freed."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _fail(error: Exception, code: int):
    _echo(f"error: {error}", err=True)
    sys.exit(code)


def _load(input_path, family, params) -> tuple[BipartiteState, StateDocument]:
    document = _resolve_document(input_path, family, params)
    return document_to_state(document), document


class _Main(click.Group):
    """Command group whose invoke is the one place library errors become exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's own handling of a closed stdout
        except (DocumentError, OSError, UnicodeDecodeError) as error:
            _fail(error, EXIT_PARSE)
        except DiscordantError as error:
            _fail(error, EXIT_VALIDATION)


def optimizer_options(command):
    command = click.option(
        "--seed", type=int, default=0, show_default=True,
        help="Seed for the optimizer restarts.",
    )(command)
    command = click.option(
        "--restarts", type=int, default=20, show_default=True,
        help="Random restarts (the eigenbasis seed is added on top).",
    )(command)
    return command


def input_options(command):
    command = click.option("--input", "input_path", type=str, default=None,
                           help="State document (JSON file, or '-' for stdin).")(command)
    command = click.option("--family", type=str, default=None,
                           help=f"Named family: {', '.join(FAMILIES)}.")(command)
    command = click.option("--param", "params", multiple=True,
                           help="Family parameter KEY=VALUE (JSON values).")(command)
    return command


def _make_config(seed, restarts) -> OptimizerConfig:
    # A bad option is a parse error, not a validation error.
    try:
        return OptimizerConfig(restarts=restarts, seed=seed)
    except InvalidParameters as error:
        _fail(error, EXIT_PARSE)


def _warned(report: DiscordReport) -> DiscordReport:
    """``report``, after a warning on stderr if its search did not converge."""
    if not report.diagnostics.converged:
        evaluations = report.diagnostics.function_evaluations
        _echo(f"warning: {report.measure} search did not converge after {evaluations} evaluations", err=True)
    return report


def _ledger_payload(ledger: WorkLedger) -> dict:
    return {
        "w_plus": ledger.w_plus,
        "w_local": ledger.w_local,
        "w2": ledger.w2,
        "w3": ledger.w3,
        "delta_L": ledger.delta_l,
        "delta_2": ledger.delta_2,
        "delta_3": ledger.delta_3,
        "measurement_w2": asdict(ledger.d2.optimal_measurement),
    }


def _analysis_report(state: BipartiteState, document: StateDocument, config: OptimizerConfig) -> dict:
    started = time.perf_counter()
    entropies = state_entropies(state)

    d1 = _warned(optimize_discord("D1", state, side="A", config=config))
    d3 = _warned(discord_d3(state, side="A"))
    d3sym = discord_d3_symmetric(state)
    verdicts = {
        "A": classify_zero_discord(state, "A"),
        "B": classify_zero_discord(state, "B"),
    }
    ledger = work_ledger(state, config=config)
    d2 = _warned(ledger.d2)

    notes = []
    if document.is_family and document.family == "bell_mixture":
        a = float(document.parameters.get("a"))
        notes.append(CLOSED_FORM_NOTE)
        notes.append(f"closed-form discord at a={a}: {bell_mixture_discord_closed_form(a)!r}")

    report = {
        "state": {
            "dims": list(state.dims),
            "purity": state.purity(),
            "spectrum_ab": [float(v) for v in entropies.spectrum_ab],
            "spectrum_a": [float(v) for v in entropies.spectrum_a],
            "spectrum_b": [float(v) for v in entropies.spectrum_b],
        },
        "entropies": {
            "s_a": entropies.s_a,
            "s_b": entropies.s_b,
            "s_ab": entropies.s_ab,
            "mutual_information": entropies.mutual_information,
        },
        "discord": {
            "d1": asdict(d1),
            "d2": asdict(d2),
            "d3": asdict(d3),
            "d3sym": asdict(d3sym),
        },
        "classification": {side: asdict(v) for side, v in verdicts.items()},
        "demon": _ledger_payload(ledger),
        "notes": notes,
        "warnings": [],
        "settings": {**asdict(config), "tolerance": SIMPLEX_TOLERANCE},
    }
    report["_timing_seconds"] = time.perf_counter() - started
    return report


def _echo_json(payload: dict) -> None:
    # Wall-clock fields are stripped so identical seeds and flags give
    # byte-identical output; measurement bases print as [re, im] pairs.
    cleaned = {k: v for k, v in payload.items() if not k.startswith("_")}
    _echo(json.dumps(cleaned, indent=2, sort_keys=True, default=_pair_matrix))


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _render_analysis(report: dict) -> None:
    dims = report["state"]["dims"]
    _echo(f"state: dims {dims[0]}x{dims[1]}, purity {_fmt(report['state']['purity'])}")
    e = report["entropies"]
    _echo(
        f"entropies: S_A {_fmt(e['s_a'])}  S_B {_fmt(e['s_b'])}  "
        f"S_AB {_fmt(e['s_ab'])}  I {_fmt(e['mutual_information'])}"
    )
    d = report["discord"]
    _echo(
        "discord:   D1 " + _fmt(d["d1"]["value"]) + "  D2 " + _fmt(d["d2"]["value"])
        + "  D3 " + _fmt(d["d3"]["value"]) + "  D3sym " + _fmt(d["d3sym"]["value"])
    )
    for side in ("A", "B"):
        v = report["classification"][side]
        extra = "" if v["residual_discord"] is None else f", residual {v['residual_discord']:.3e}"
        _echo(
            f"classify {side}: {v['verdict']} via {v['method']} "
            f"(commutator {v['commutator_norm']:.3e}{extra})"
        )
    w = report["demon"]
    _echo(
        f"demon:     W+ {_fmt(w['w_plus'])}  W_L {_fmt(w['w_local'])}  "
        f"W2 {_fmt(w['w2'])}  W3 {_fmt(w['w3'])}"
    )
    _echo(
        f"           dL {_fmt(w['delta_L'])}  d2 {_fmt(w['delta_2'])}  d3 {_fmt(w['delta_3'])}"
    )
    for note in report["notes"]:
        _echo(f"note: {note}")
    _echo(f"elapsed: {report['_timing_seconds']:.2f} s")


@click.group(cls=_Main)
def main() -> None:
    """Correlation and discord analysis for bipartite quantum states."""


@main.command()
@input_options
@optimizer_options
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def analyze(input_path, family, params, seed, restarts, as_json):
    """Full report: entropies, discords, classification, work ledger."""
    state, document = _load(input_path, family, params)
    config = _make_config(seed, restarts)
    report = _analysis_report(state, document, config)
    if as_json:
        _echo_json(report)
    else:
        _render_analysis(report)


@main.command()
@input_options
@click.option("--side", type=click.Choice(["A", "B"], case_sensitive=False), default="A",
              show_default=True, help="Subsystem to test.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def classify(input_path, family, params, side, as_json):
    """Zero-discord test; exit 0 ZERO, 1 NONZERO, 4 AMBIGUOUS."""
    state, _ = _load(input_path, family, params)
    verdict = classify_zero_discord(state, side.upper())
    if as_json:
        _echo_json(asdict(verdict))
    else:
        residual = "n/a" if verdict.residual_discord is None else f"{verdict.residual_discord:.6e}"
        _echo(
            f"{verdict.verdict} (side {side.upper()}, method {verdict.method}, "
            f"commutator norm {verdict.commutator_norm:.6e}, residual discord {residual})"
        )
    if verdict.verdict == "NONZERO":
        sys.exit(EXIT_NONZERO)
    if verdict.verdict == "AMBIGUOUS":
        sys.exit(EXIT_AMBIGUOUS)


@main.command(name="discord")
@input_options
@optimizer_options
@click.option("--measure", type=click.Choice(["D1", "D2", "D3", "D3SYM"], case_sensitive=False),
              default="D1", show_default=True)
@click.option("--side", type=click.Choice(["A", "B"], case_sensitive=False), default="A",
              show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def discord_command(input_path, family, params, seed, restarts, measure, side, as_json):
    """Single discord measure with optimizer diagnostics."""
    state, _ = _load(input_path, family, params)
    config = _make_config(seed, restarts)
    measure = measure.upper()
    if measure in ("D1", "D2"):
        report = optimize_discord(measure, state, side=side.upper(), config=config)
    elif measure == "D3":
        report = discord_d3(state, side=side.upper())
    else:
        report = discord_d3_symmetric(state)
    _warned(report)
    if as_json:
        _echo_json(asdict(report))
    else:
        _echo(f"{report.measure} = {_fmt(report.value)} bits (J = {_fmt(report.j_value)})")
        if report.diagnostics.degenerate_marginal:
            _echo("note: measured marginal is degenerate; eigenbasis as the eigensolver returns it")
            if report.diagnostics.restricted_infimum is not None:
                _echo(
                    f"      restricted-basis infimum {_fmt(report.diagnostics.restricted_infimum)}"
                )


@main.command()
@input_options
@optimizer_options
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def demon(input_path, family, params, seed, restarts, as_json):
    """Work-extraction ledger for the four engine scenarios, in bits."""
    state, _ = _load(input_path, family, params)
    config = _make_config(seed, restarts)
    ledger = work_ledger(state, config=config)
    _warned(ledger.d2)
    if as_json:
        _echo_json(_ledger_payload(ledger))
    else:
        _echo(
            f"W+ {_fmt(ledger.w_plus)}  W_L {_fmt(ledger.w_local)}  "
            f"W2 {_fmt(ledger.w2)}  W3 {_fmt(ledger.w3)}"
        )
        _echo(
            f"dL {_fmt(ledger.delta_l)}  d2 {_fmt(ledger.delta_2)}  d3 {_fmt(ledger.delta_3)}"
        )


def _table1_rows(bell: BipartiteState, a: float, config: OptimizerConfig) -> list[dict]:
    doubled = np.full(9, 1 / 11)
    doubled[6] = doubled[8] = 2 / 11
    table = [
        # (states, state, D1 also reported on side B, locally measurable, notes)
        ("9 teahouse states, equal weights", teahouse_ensemble().density_matrix(), True, "no", []),
        ("2 product bi-orthogonal states", classical_classical_state(np.diag([0.5, 0.5])), True, "yes", []),
        (
            f"2 entangled orthogonal states (Bell mixture, a={a})", bell, False, "yes",
            [f"closed form 1 - H2(a) = {bell_mixture_discord_closed_form(a)!r}", CLOSED_FORM_NOTE],
        ),
        (
            "9 teahouse states, psi7/psi9 weights doubled",
            teahouse_ensemble(doubled).density_matrix(), False, "no", [],
        ),
    ]
    return [
        {
            "states": label,
            "d1_a": _warned(optimize_discord("D1", state, "A", config)).value,
            "d1_b": _warned(optimize_discord("D1", state, "B", config)).value if both_sides else None,
            "locally_measurable": measurable,
            "notes": notes,
        }
        for label, state, both_sides, measurable, notes in table
    ]


@main.command()
@optimizer_options
@click.option("--param", "params", multiple=True, help="Row parameter, e.g. a=0.3.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def table1(seed, restarts, params, as_json):
    """Local measurability vs. discord: recompute the discord column.

    The locally-measurable column is cited from prior literature, not computed.
    """
    config = _make_config(seed, restarts)
    bell, document = _load(None, "bell_mixture", ("a=0.25",) + params)
    rows = _table1_rows(bell, float(document.parameters["a"]), config)
    if as_json:
        _echo_json({
            "rows": rows,
            "locally_measurable_source": "cited from prior literature, not computed",
        })
        return
    _echo(f"{'states':<50} {'discord':<24} locally measurable (cited)")
    for row in rows:
        if row["d1_b"] is None:
            discord_text = f"D1^A = {_fmt(row['d1_a'])}"
        else:
            discord_text = f"D^A = {_fmt(row['d1_a'])}, D^B = {_fmt(row['d1_b'])}"
        _echo(f"{row['states']:<50} {discord_text:<24} {row['locally_measurable']}")
    for row in rows:
        for note in row["notes"]:
            _echo(f"note: {note}")


@main.group()
def states() -> None:
    """List the named state families or emit their documents."""


@states.command("list")
def states_list() -> None:
    """Show families and their parameters."""
    for name in FAMILIES:
        _echo(f"{name:<22} {FAMILIES[name].summary}")


@states.command("emit")
@click.argument("family", type=click.Choice(list(FAMILIES)))
@click.option("--param", "params", multiple=True, help="Family parameter KEY=VALUE.")
@click.option("--explicit", is_flag=True, help="Materialize the density matrix.")
@click.option("-o", "--output", type=str, default=None, help="Write to a file instead of stdout.")
def states_emit(family, params, explicit, output):
    """Emit a state document for FAMILY."""
    document = _resolve_document(None, family, params)
    if explicit:
        document = state_to_document(document_to_state(document))
    text = dumps_document(document)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        _echo(text)


if __name__ == "__main__":
    main()
