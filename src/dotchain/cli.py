"""Command-line entry points.

Exit codes: 0 success, 1 config/validation failure, 2 verification-threshold
failure (prepare only). An override flag's click name is the config key it
sets, so its value is applied as that key's text.
"""

from __future__ import annotations

import sys

import click

from .config import config_from_strings, load_config_file
from .harness import run_figure2, run_figure3, run_measure_demo, run_prepare
from .pulse import DetuningPulse, local_phase, local_phase_sensitivity

_common = [
    # note: no exists=True — a missing file must exit 1 (validation failure),
    # not 2 (click usage error), per the exit-code contract
    click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None, help="Config file or run manifest."),
    click.option("--out", "out_dir", type=click.Path(file_okay=False), default="out", show_default=True, help="Output directory."),
    click.option("--seed", "seed", type=int, default=None, help="Override the base seed."),
    click.option("--trials", "trials", type=int, default=None, help="Override the Monte Carlo trial count."),
    click.option("--qubits", "n_qubits", type=int, default=None, help="Override the chain length."),
    click.option("--sigma-over-pi", "sigma_over_pi", type=float, default=None, help="Override the noise level list with a single value."),
]


def _with_common(func):
    for option in reversed(_common):
        func = option(func)
    return func


def _prepare_with_local_phase(cfg, out_dir):
    """run_prepare's report, and the local phase and dTheta/deps of the pulse it calibrated."""
    report = run_prepare(cfg, out_dir)
    pulse = DetuningPulse(report.ramp_ns, report.hold_ns, *cfg.resolved_eps())
    return report, local_phase(pulse, cfg.device), local_phase_sensitivity(pulse, cfg.device)


# Config keys whose override flag a command has no use for. Passing one is
# refused, so a flag is never silently ignored.
_UNUSED_FLAGS = {
    run_figure2: ("seed", "trials", "n_qubits", "sigma_over_pi"),
    run_figure3: ("n_qubits",),
    _prepare_with_local_phase: ("seed", "trials", "sigma_over_pi"),
    run_measure_demo: ("trials", "sigma_over_pi"),
}


@click.group()
def main():
    """Cluster-state preparation in a double-quantum-dot qubit chain."""


def _run(command, config_path, out_dir, **overrides):
    """Load the config, apply the override flags and run one harness command.

    Every failure to carry out a request exits 1 with its message.
    ConfigError and CalibrationError are ValueErrors, and so are the checks
    a valid config can still fail, such as a pulse too long to represent.
    A flag the command does not use is refused before anything runs.
    """
    ctx = click.get_current_context()
    for key in _UNUSED_FLAGS[command]:
        if overrides[key] is not None:
            flag = next(param.opts[0] for param in ctx.command.params if param.name == key)
            raise click.ClickException(f"{flag} is not used by {ctx.info_name}")
    try:
        raw = load_config_file(config_path) if config_path else {}
        raw.update({key: str(value) for key, value in overrides.items() if value is not None})
        return command(config_from_strings(raw), out_dir)
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
    report, phase, sensitivity = _run(_prepare_with_local_phase, **options)
    click.echo(
        f"n={report.n_qubits} hold={report.hold_ns:.6g} ns "
        f"bond_phase={report.bond_phase_rad:.9g} rad"
    )
    click.echo(f"local_phase={phase:.9g} rad dlocal_phase/deps={sensitivity / 1e3:.6g} rad/ueV")
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
