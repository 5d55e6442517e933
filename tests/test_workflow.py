"""The CI workflow: it parses as YAML, every step of the tier-1 job runs a
command or uses an action, and every shell block is valid bash."""

import pathlib
import shutil
import subprocess

import pytest

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_every_tier1_step_runs_something_and_parses_as_bash():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert set(workflow[True]) == {"push", "pull_request"}  # YAML 1.1 reads the key `on` as True
    steps = workflow["jobs"]["tier1"]["steps"]
    assert steps
    for step in steps:
        assert "run" in step or "uses" in step, step
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("no bash to check the run blocks with")
    for step in steps:
        if "run" in step:
            out = subprocess.run([bash, "-n"], input=step["run"], capture_output=True, text=True)
            assert out.returncode == 0, (step.get("name"), out.stderr)
