"""Every benchmark command still prints its pinned output.

The benchmark checks each command's exit code and the sha256 of its stdout
against ``perfbench/reference.json`` and counts a differing run as failed.
Its command list, ``WORKLOADS`` in ``perfbench/workload.py``, is read here
with ``ast`` (never imported or edited), each command runs in-process on
cleared caches, and the digest is taken the way ``workload.output_digest``
takes it: for search, the echoed ``config.seed`` is left out.
"""

import hashlib
import json
import sys

import pytest

from test_benchmark_names import ROOT, _literal

REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
COMMANDS = sorted(
    {
        template
        for templates in _literal("perfbench/workload.py", "WORKLOADS").values()
        for template in templates
    }
)


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "gassner" or name.startswith("gassner."):
            owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
            for owner in owners:
                for value in list(vars(owner).values()):
                    if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                        value.cache_clear()


def _digest(template, out: str) -> str:
    if template[0] == "search":
        first, sep, rest = out.partition("\n")
        head = json.loads(first)
        del head["config"]["seed"]
        out = json.dumps(head, sort_keys=True) + sep + rest
    return hashlib.sha256(out.encode()).hexdigest()


def test_every_command_is_pinned():
    assert len(COMMANDS) >= 6
    assert {" ".join(t) for t in COMMANDS} == set(REFERENCE)


@pytest.mark.parametrize("template", COMMANDS, ids=" ".join)
def test_output_matches_reference(template, capsys):
    from gassner.cli import main

    _clear_caches()
    code = main(list(template))
    out = capsys.readouterr().out
    pinned = REFERENCE[" ".join(template)]
    assert code == pinned["rc"]
    assert _digest(template, out) == pinned["digest"]
