"""Each benchmark workload, run in this process on the package under test,
passes every check it makes: a renamed attribute or a changed output byte
shows up here, before a benchmark run reports it as a failed job."""

import importlib.util
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    # loaded from its file under its own name; neither script is edited
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def scripts():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # both scripts import ``reference`` from there
        yield load("run"), load("job")


@pytest.mark.parametrize("workload", ["verify-church3", "laws-church4", "encode-conway5"])
def test_workload_passes_every_check(scripts, workload, tmp_path):
    run, job = scripts
    assert workload in run.WORKLOADS
    run._write_inputs(workload, 1, tmp_path)
    done = job.Job(str(tmp_path))
    job.WORKLOADS[workload](done)
    assert done.attempted and done.failures == []
