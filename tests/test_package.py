import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import bohmctx
from bohmctx.cli import main
from test_golden import CASES, GOLDEN


def test_public_names_resolve_and_none_repeats():
    assert len(set(bohmctx.__all__)) == len(bohmctx.__all__)
    for name in bohmctx.__all__:
        getattr(bohmctx, name)  # AttributeError if the name is stale


def test_only_the_sampler_seeds_generators():
    # every random draw comes from sampling._draws, one generator per
    # (seed, index, *stream), so no other module may seed one
    src = Path(bohmctx.__file__).resolve().parent
    seeding = sorted(str(p.relative_to(src)) for p in src.rglob("*.py")
                     if "default_rng" in p.read_text())
    assert seeding == ["sampling.py"]


def test_tracer_patch_targets_exist():
    # perfbench/tracer.py wraps functions by module and attribute name and
    # its counters read their arguments by parameter name, so a rename in
    # src would break traced benchmark runs and nothing else.  Delete this
    # test together with the tracer.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _layer, counter in tracer.PATCHES:
        target = getattr(importlib.import_module(module_name), attr)
        if counter is None:
            continue
        keys = re.findall(r'\ba\["(\w+)"\]', inspect.getsource(counter))
        params = inspect.signature(target).parameters
        for key in keys:
            assert key in params, f"{module_name}.{attr} has no {key!r}"


@pytest.mark.parametrize("name", list(CASES))
def test_traced_golden_run_writes_the_untraced_summary(tmp_path, name):
    # each golden config run with every perfbench/tracer.PATCHES wrapper
    # installed exits 0 and writes the summary.json of the untraced run
    # (the golden fixture).  Delete this test together with the tracer.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer().installed():
        code = main([CASES[name], "--config", str(GOLDEN / f"{name}.cfg"),
                     "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "summary.json").read_bytes() \
        == (GOLDEN / name / "summary.json").read_bytes()
