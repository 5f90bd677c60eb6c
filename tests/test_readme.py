import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    # the example is run as written, so a name it uses cannot vanish unnoticed
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(example, str(README), "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    assert abs(float(first) - 1.0) <= 1e-12  # the ideal_cluster_fidelity line
