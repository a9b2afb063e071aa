"""Positive + negative fixtures for every RPL rule.

Each test fabricates a miniature ``src/repro`` tree (see conftest) and
runs a single rule against it: the negative fixture must produce the
rule's finding, the positive fixture must come back clean.
"""

from __future__ import annotations

from repro.lint.findings import Baseline
from repro.lint.rules import (
    RULES,
    AllMatchesBindings,
    FrozenFieldsOnlyInPostInit,
    HotClassesDeclareSlots,
    MatmulsRouteThroughAttention,
    NoHotPathAllocation,
    NoImportCycles,
    NoSwallowedExceptions,
    NoWallClock,
    RaisesModelErrors,
    StatsScopedToAttention,
    get_rule,
)
from repro.lint.runner import run_lint


def codes(result):
    return [f.code for f in result.findings]


def lint_one(make_repo, files, rule):
    return run_lint(make_repo(files), baseline=Baseline(), rules=(rule,))


# ---------------------------------------------------------------- RPL001


def test_rpl001_flags_wall_clock_in_hot_module(make_repo):
    result = lint_one(
        make_repo,
        {
            "serve/engine.py": (
                "import time\n"
                "def step():\n"
                "    return time.time()\n"
            )
        },
        NoWallClock(),
    )
    assert codes(result) == ["RPL001"]
    assert "time.time()" in result.findings[0].message
    assert result.findings[0].context == "step"


def test_rpl001_flags_datetime_now_and_bare_time(make_repo):
    result = lint_one(
        make_repo,
        {
            "serve/kvpool/pool.py": (
                "from time import time\n"
                "import datetime\n"
                "def a():\n"
                "    return time()\n"
                "def b():\n"
                "    return datetime.datetime.now()\n"
            )
        },
        NoWallClock(),
    )
    assert codes(result) == ["RPL001", "RPL001"]


def test_rpl001_allows_perf_counter_and_cold_modules(make_repo):
    result = lint_one(
        make_repo,
        {
            "serve/engine.py": (
                "import time\n"
                "def step():\n"
                "    return time.perf_counter()\n"
            ),
            # Wall clock outside a hot-path module is out of scope.
            "experiments/runner.py": (
                "import time\n"
                "def run():\n"
                "    return time.time()\n"
            ),
        },
        NoWallClock(),
    )
    assert codes(result) == []


# ---------------------------------------------------------------- RPL002


ENGINE_WITH_ALLOC = (
    "import numpy as np\n"
    "class Engine:\n"
    "    def step(self):\n"
    "        return self._gather()\n"
    "    def _gather(self):\n"
    "        return np.concatenate([np.zeros(2), np.zeros(2)])\n"
)


def test_rpl002_flags_concatenate_reachable_from_step(make_repo):
    result = lint_one(make_repo, {"serve/engine.py": ENGINE_WITH_ALLOC}, NoHotPathAllocation())
    assert codes(result) == ["RPL002"]
    assert result.findings[0].context == "Engine._gather"


def test_rpl002_follows_cross_module_method_calls(make_repo):
    files = {
        "serve/engine.py": (
            "from repro.serve.helper import Helper\n"
            "class Engine:\n"
            "    def step(self):\n"
            "        return Helper().grow()\n"
        ),
        "serve/helper.py": (
            "import numpy as np\n"
            "class Helper:\n"
            "    def grow(self):\n"
            "        return np.vstack([1])\n"
        ),
    }
    result = lint_one(make_repo, files, NoHotPathAllocation())
    assert codes(result) == ["RPL002"]
    assert result.findings[0].path.endswith("helper.py")


def test_rpl002_flags_hot_path_marker_functions(make_repo):
    files = {
        "llm/kernels.py": (
            "import numpy as np\n"
            "def fuse(x):  # hot-path\n"
            "    return np.append(x, 1)\n"
        )
    }
    result = lint_one(make_repo, files, NoHotPathAllocation())
    assert codes(result) == ["RPL002"]


def test_rpl002_flags_stored_buffer_astype_but_not_expressions(make_repo):
    files = {
        "serve/engine.py": (
            "import numpy as np\n"
            "class Engine:\n"
            "    def step(self):\n"
            "        bad = self._buf.astype(np.float32)\n"
            "        ok = (bad * 2).astype(np.float32)\n"
            "        return ok\n"
        )
    }
    result = lint_one(make_repo, files, NoHotPathAllocation())
    assert codes(result) == ["RPL002"]
    assert "_buf" in result.findings[0].message


def test_rpl002_ignores_unreachable_allocation(make_repo):
    files = {
        "serve/engine.py": (
            "class Engine:\n"
            "    def step(self):\n"
            "        return 1\n"
        ),
        "tools/offline.py": (
            "import numpy as np\n"
            "def pack(chunks):\n"
            "    return np.concatenate(chunks)\n"
        ),
    }
    result = lint_one(make_repo, files, NoHotPathAllocation())
    assert codes(result) == []


# ---------------------------------------------------------------- RPL003


def test_rpl003_flags_slotless_class_in_hot_module(make_repo):
    files = {
        "serve/kvpool/paged.py": (
            "class SequenceKV:\n"
            "    def __init__(self):\n"
            "        self.blocks = []\n"
        )
    }
    result = lint_one(make_repo, files, HotClassesDeclareSlots())
    assert codes(result) == ["RPL003"]


def test_rpl003_accepts_slots_dataclass_slots_and_exceptions(make_repo):
    files = {
        "serve/engine.py": (
            "from dataclasses import dataclass\n"
            "class A:\n"
            "    __slots__ = ('x',)\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class B:\n"
            "    x: int = 0\n"
            "class PoolError(RuntimeError):\n"
            "    pass\n"
        ),
        # Cold modules are out of scope entirely.
        "tools/report.py": "class Report:\n    pass\n",
    }
    result = lint_one(make_repo, files, HotClassesDeclareSlots())
    assert codes(result) == []


def test_rpl003_real_allowlist_suppresses_engine_itself():
    # The shipped allowlist grandfathers once-per-engine classes; the
    # real repo must therefore be RPL003-clean (see test_repo_clean).
    from repro.lint.runner import DEFAULT_ALLOWLIST
    from repro.lint.rules import parse_slots_allowlist

    allowlist = parse_slots_allowlist(DEFAULT_ALLOWLIST)
    assert "repro.serve.engine:Engine" in allowlist
    assert allowlist["repro.serve.engine:Engine"]  # reason is mandatory


# ---------------------------------------------------------------- RPL004


def test_rpl004_flags_global_stats_access_outside_attention(make_repo):
    files = {
        "serve/engine.py": (
            "from repro.llm.attention import HOT_PATH_STATS\n"
            "def peek():\n"
            "    return HOT_PATH_STATS.gather_calls\n"
        ),
        "llm/attention.py": "HOT_PATH_STATS = object()\n",
    }
    result = lint_one(make_repo, files, StatsScopedToAttention())
    # One finding for the import, one for the read.
    assert codes(result) == ["RPL004", "RPL004"]


def test_rpl004_allows_attention_internals(make_repo):
    files = {
        "llm/attention.py": (
            "HOT_PATH_STATS = object()\n"
            "def _scope():\n"
            "    return HOT_PATH_STATS\n"
        )
    }
    result = lint_one(make_repo, files, StatsScopedToAttention())
    assert codes(result) == []


# ---------------------------------------------------------------- RPL006


def test_rpl006_flags_setattr_outside_post_init(make_repo):
    files = {
        "serve/params.py": (
            "def tweak(params):\n"
            "    object.__setattr__(params, 'temperature', 0.0)\n"
        )
    }
    result = lint_one(make_repo, files, FrozenFieldsOnlyInPostInit())
    assert codes(result) == ["RPL006"]


def test_rpl006_flags_post_init_on_foreign_object(make_repo):
    files = {
        "serve/params.py": (
            "class P:\n"
            "    def __post_init__(self, other):\n"
            "        object.__setattr__(other, 'x', 1)\n"
        )
    }
    result = lint_one(make_repo, files, FrozenFieldsOnlyInPostInit())
    assert codes(result) == ["RPL006"]


def test_rpl006_allows_self_post_init(make_repo):
    files = {
        "serve/params.py": (
            "class P:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'x', 1)\n"
        )
    }
    result = lint_one(make_repo, files, FrozenFieldsOnlyInPostInit())
    assert codes(result) == []


# ---------------------------------------------------------------- RPL007


def test_rpl007_flags_bare_except_and_blanket_pass(make_repo):
    files = {
        "serve/engine.py": (
            "def a():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        log()\n"
            "def b():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        )
    }
    result = lint_one(make_repo, files, NoSwallowedExceptions())
    assert codes(result) == ["RPL007", "RPL007"]


def test_rpl007_flags_blanket_handler_without_reraise(make_repo):
    # A blanket handler that does real work but absorbs the failure is
    # just as corrupting as a swallow — the step's partial state stays.
    files = {
        "serve/engine.py": (
            "def a():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        rollback()\n"
            "        log()\n"
        )
    }
    result = lint_one(make_repo, files, NoSwallowedExceptions())
    assert codes(result) == ["RPL007"]
    assert "without a re-raise" in result.findings[0].message


def test_rpl007_allows_rollback_then_reraise_and_non_serve(make_repo):
    files = {
        "serve/engine.py": (
            "def a():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        rollback()\n"
            "        raise\n"
            "    except ValueError:\n"
            "        pass\n"
        ),
        # Outside serve/, even a swallow is out of this rule's scope.
        "tools/cleanup.py": (
            "def quiet():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        ),
    }
    result = lint_one(make_repo, files, NoSwallowedExceptions())
    assert codes(result) == []


# ---------------------------------------------------------------- RPL008


def test_rpl008_flags_phantom_and_missing_exports(make_repo):
    files = {
        "serve/__init__.py": (
            "from repro.serve.engine import Engine\n"
            "def helper():\n"
            "    pass\n"
            "__all__ = ['Engine', 'Ghost']\n"
        ),
        "serve/engine.py": "class Engine:\n    pass\n",
    }
    result = lint_one(make_repo, files, AllMatchesBindings())
    messages = " | ".join(f.message for f in result.findings)
    assert codes(result) == ["RPL008", "RPL008"]
    assert "Ghost" in messages  # declared but not bound
    assert "helper" in messages  # bound but not declared


def test_rpl008_accepts_exact_match(make_repo):
    files = {
        "serve/__init__.py": (
            "from repro.serve.engine import Engine\n"
            "_private = 1\n"
            "__all__ = ['Engine']\n"
        ),
        "serve/engine.py": "class Engine:\n    pass\n",
    }
    result = lint_one(make_repo, files, AllMatchesBindings())
    assert codes(result) == []


# ---------------------------------------------------------------- RPL009


def test_rpl009_flags_top_level_cycle(make_repo):
    files = {
        "serve/a.py": "from repro.serve.b import B\nA = 1\n",
        "serve/b.py": "from repro.serve.a import A\nB = 1\n",
    }
    result = lint_one(make_repo, files, NoImportCycles())
    assert codes(result) == ["RPL009"]
    assert "repro.serve.a -> repro.serve.b" in result.findings[0].message or (
        "repro.serve.b -> repro.serve.a" in result.findings[0].message
    )


def test_rpl009_allows_lazy_and_type_checking_imports(make_repo):
    files = {
        "serve/a.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.serve.b import B\n"
            "def get_b():\n"
            "    from repro.serve.b import B\n"
            "    return B\n"
            "A = 1\n"
        ),
        "serve/b.py": "from repro.serve.a import A\nB = 1\n",
    }
    result = lint_one(make_repo, files, NoImportCycles())
    assert codes(result) == []


def test_rpl009_sibling_submodule_import_is_not_a_package_edge(make_repo):
    # `from repro.core import fp16` inside repro.core.* is the standard
    # sibling-import idiom, not a dependency on the package __init__.
    files = {
        "core/__init__.py": "from repro.core.anda import encode\n",
        "core/anda.py": "from repro.core import fp16\ndef encode():\n    return fp16.F\n",
        "core/fp16.py": "F = 1\n",
    }
    result = lint_one(make_repo, files, NoImportCycles())
    assert codes(result) == []


# ---------------------------------------------------------------- RPL010


def test_rpl010_flags_matmul_spellings_in_serve(make_repo):
    files = {
        "serve/fastpath.py": (
            "import numpy as np\n"
            "def attn(q, k):\n"
            "    a = q @ k\n"
            "    b = np.matmul(q, k)\n"
            "    c = q.dot(k)\n"
            "    d = np.einsum('ij,jk->ik', q, k)\n"
            "    return a, b, c, d\n"
        )
    }
    result = lint_one(make_repo, files, MatmulsRouteThroughAttention())
    assert codes(result) == ["RPL010"] * 4


def test_rpl010_ignores_llm_package(make_repo):
    files = {
        "llm/attention.py": (
            "def _attention_core(q, k):\n"
            "    return q @ k\n"
        )
    }
    result = lint_one(make_repo, files, MatmulsRouteThroughAttention())
    assert codes(result) == []


def test_rpl010_flags_weight_products_in_llm_outside_layers(make_repo):
    files = {
        "llm/transformer.py": (
            "import numpy as np\n"
            "class FFN:\n"
            "    def step(self, x):\n"
            "        h = x @ self.up_proj.weight.data + self.up_proj.bias.data\n"
            "        g = np.matmul(h, self.down_proj.weight.data)\n"
            "        return self.lm_head.weight.data.dot(g)\n"
        ),
        # Attention-core products and Linear.step's own GEMM stay legal.
        "llm/attention.py": (
            "def _attention_core(q, keys, weights):\n"
            "    return (q @ keys) @ weights\n"
        ),
        "llm/layers.py": (
            "class Linear:\n"
            "    def step(self, x):\n"
            "        return x @ self.weight.data\n"
        ),
    }
    result = lint_one(make_repo, files, MatmulsRouteThroughAttention())
    assert codes(result) == ["RPL010"] * 3
    assert {f.path for f in result.findings} == {"src/repro/llm/transformer.py"}
    assert all("Linear.step" in f.message for f in result.findings)
    assert {f.context for f in result.findings} == {"FFN.step"}


# ---------------------------------------------------------------- RPL011


def test_rpl011_flags_non_model_error_raises_in_serve(make_repo):
    files = {
        "errors.py": (
            "class ModelError(Exception):\n"
            "    pass\n"
        ),
        "serve/engine.py": (
            "class LocalOops(RuntimeError):\n"
            "    pass\n"
            "def a():\n"
            "    raise ValueError('bad q')\n"
            "def b():\n"
            "    raise NotImplementedError\n"
            "def c():\n"
            "    raise LocalOops('outside the taxonomy')\n"
        ),
    }
    result = lint_one(make_repo, files, RaisesModelErrors())
    assert codes(result) == ["RPL011"] * 3
    messages = " | ".join(f.message for f in result.findings)
    assert "ValueError" in messages
    assert "NotImplementedError" in messages
    assert "LocalOops" in messages


def test_rpl011_flags_non_model_error_raises_in_llm(make_repo):
    # The model's inference entries are part of the serving failure
    # surface, so llm/ follows the same taxonomy.
    files = {
        "errors.py": (
            "class ModelError(Exception):\n"
            "    pass\n"
        ),
        "llm/transformer.py": (
            "from repro.errors import ModelError\n"
            "class CausalLM:\n"
            "    def forward_step(self, tokens):\n"
            "        if tokens.ndim != 2:\n"
            "            raise ValueError('expects (1, new) token ids')\n"
            "        raise ModelError('typed, allowed')\n"
        ),
    }
    result = lint_one(make_repo, files, RaisesModelErrors())
    assert codes(result) == ["RPL011"]
    (finding,) = result.findings
    assert finding.path == "src/repro/llm/transformer.py"
    assert finding.context == "CausalLM.forward_step"
    assert finding.message.startswith("raise ValueError in llm/")


def test_rpl011_allows_transitive_subclasses_and_unresolvable_raises(make_repo):
    files = {
        "errors.py": (
            "class ModelError(Exception):\n"
            "    pass\n"
            "class RequestError(ModelError):\n"
            "    pass\n"
        ),
        "serve/faults.py": (
            "from repro.errors import RequestError\n"
            "class TransientFault(RequestError):\n"
            "    pass\n"
            "def probe(cls):\n"
            "    raise cls('variable raise is not statically resolvable')\n"
            "def direct():\n"
            "    raise TransientFault('two hops below ModelError')\n"
            "def reraise():\n"
            "    try:\n"
            "        direct()\n"
            "    except TransientFault:\n"
            "        raise\n"
        ),
        # Outside serve/ and llm/, the taxonomy rule does not apply.
        "tools/cli.py": "def main():\n    raise SystemExit(2)\n",
    }
    result = lint_one(make_repo, files, RaisesModelErrors())
    assert codes(result) == []


# ---------------------------------------------------------------- framework


def test_every_rule_has_code_rationale_invariant_and_explain():
    seen = set()
    for rule in RULES:
        assert rule.code.startswith("RPL") and len(rule.code) == 6
        assert rule.code not in seen
        seen.add(rule.code)
        assert rule.title
        assert rule.rationale
        assert rule.invariant
        assert rule.explain
        assert get_rule(rule.code) is rule
        assert get_rule(rule.code.lower()) is rule
    assert len(seen) == 10  # RPL001-RPL011, RPL005 retired


def test_findings_are_sorted_and_keyed_stably(make_repo):
    result = lint_one(
        make_repo,
        {"serve/engine.py": ENGINE_WITH_ALLOC},
        NoHotPathAllocation(),
    )
    (finding,) = result.findings
    assert finding.key.startswith("RPL002|src/repro/serve/engine.py|Engine._gather|")
    assert str(finding.line) not in finding.key.split("|")  # line-independent
