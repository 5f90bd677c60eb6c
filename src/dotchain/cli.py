"""Command-line entry points.

Exit codes: 0 success, 1 config/validation failure, 2 verification-threshold
failure (prepare only).
"""

from __future__ import annotations

import sys

import click

from .config import config_from_strings, load_config_file
from .harness import run_figure2, run_figure3, run_measure_demo, run_prepare


def _load(config_path, overrides: dict[str, str]):
    raw = load_config_file(config_path) if config_path else {}
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_strings(raw)


_common = [
    # note: no exists=True — a missing file must exit 1 (validation failure),
    # not 2 (click usage error), per the exit-code contract
    click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None, help="Config file or run manifest."),
    click.option("--out", "out_dir", type=click.Path(file_okay=False), default="out", show_default=True, help="Output directory."),
    click.option("--seed", type=int, default=None, help="Override the base seed."),
    click.option("--trials", type=int, default=None, help="Override the Monte Carlo trial count."),
    click.option("--qubits", type=int, default=None, help="Override the chain length."),
    click.option("--sigma-over-pi", type=float, default=None, help="Override the noise level list with a single value."),
]


def _with_common(func):
    for option in reversed(_common):
        func = option(func)
    return func


def _overrides(seed, trials, qubits, sigma_over_pi) -> dict[str, str]:
    return {
        "seed": None if seed is None else str(seed),
        "trials": None if trials is None else str(trials),
        "n_qubits": None if qubits is None else str(qubits),
        "sigma_over_pi": None if sigma_over_pi is None else repr(sigma_over_pi),
    }


# Override flags a command has no use for. Passing one is refused, so a
# flag is never silently ignored.
_UNUSED_FLAGS = {
    run_figure2: ("--trials", "--qubits", "--sigma-over-pi"),
    run_figure3: ("--qubits",),
    run_prepare: ("--trials", "--sigma-over-pi"),
    run_measure_demo: ("--trials", "--sigma-over-pi"),
}


@click.group()
def main():
    """Cluster-state preparation in a double-quantum-dot qubit chain."""


def _run(command, config_path, out_dir, seed, trials, qubits, sigma_over_pi):
    """Load the config and run one harness command.

    Every failure to carry out a request exits 1 with its message.
    ConfigError and CalibrationError are ValueErrors, and so are the checks
    a valid config can still fail, such as a pulse too long to represent.
    A flag the command does not use is refused before anything runs.
    """
    given = {"--trials": trials, "--qubits": qubits, "--sigma-over-pi": sigma_over_pi}
    for flag in _UNUSED_FLAGS[command]:
        if given[flag] is not None:
            name = click.get_current_context().info_name
            raise click.ClickException(f"{flag} is not used by {name}")
    try:
        cfg = _load(config_path, _overrides(seed, trials, qubits, sigma_over_pi))
        return command(cfg, out_dir)
    except (ValueError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc


def _echo_paths(paths) -> None:
    for name, path in paths.items():
        click.echo(f"{name}: {path}")


@main.command()
@_with_common
def figure2(**options):
    """Coupling-vs-detuning sweep and calibrated pulse waveform CSVs."""
    _echo_paths(_run(run_figure2, **options))


@main.command()
@_with_common
def figure3(**options):
    """Fidelity grids over chain length and noise level."""
    _echo_paths(_run(run_figure3, **options))


@main.command()
@_with_common
def prepare(**options):
    """Prepare the cluster state and verify fidelity and stabilizers."""
    report = _run(run_prepare, **options)
    click.echo(
        f"n={report.n_qubits} hold={report.hold_ns:.6g} ns "
        f"bond_phase={report.bond_phase_rad:.9g} rad"
    )
    click.echo(f"fidelity_to_ideal={report.fidelity_to_ideal:.12g}")
    click.echo(f"min_stabilizer={min(report.stabilizers):.12g}")
    if not report.passed:
        click.echo("verification FAILED: stabilizer below threshold", err=True)
        sys.exit(2)
    click.echo("verification passed")


@main.command("measure-demo")
@_with_common
def measure_demo(**options):
    """Prepare the cluster, then run the configured measurement pattern."""
    _echo_paths(_run(run_measure_demo, **options))


if __name__ == "__main__":
    main()
