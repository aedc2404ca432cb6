"""Source hygiene checks that need no linter: unused module-level imports,
`__all__` entries that name nothing in their module, RunConfig fields
that nothing reads, one list of model fields, no default outside
RunConfig that repeats one of its fields, no hand-written parameter
or buffer plumbing outside nn.Module, no writes into a `.data` array, no
global mode besides `no_grad`, asset selection only in the encoder, the
optimizer step only in the trainer, snapshot values read only by IO,
featurization and CutMix, no generator
seeded with a literal, no garbage-collector switches, no function or
class that no other library line names, no backward closure that
holds a Tensor, and no node wired outside `Tensor._record` but by the
fused kernels."""

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import every_op, held_values, small_schema
from tabfusion.checkpoint import load_checkpoint
from tabfusion.config import RunConfig
from tabfusion.model import Model
from tabfusion.tensor import Node, Tensor

SRC = Path(__file__).resolve().parent.parent / "src" / "tabfusion"
MODULES = sorted(SRC.glob("*.py"))


def _is_all(node) -> bool:
    """Whether `node` is an `__all__ = [...]` assignment."""
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if _is_all(node):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Module-level imports never referenced in `source` and not in its `__all__`."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    keep = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [name for name in bound if name not in keep]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom math import pi, tau as turn\nfrom .x import Kept\n"
        "__all__ = ['Kept']\n"
        "def f() -> float:\n    return os.path.sep, pi\n"
    )
    assert unused_imports(source) == ["json", "turn"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def unresolved_exports(source: str) -> list[str]:
    """`__all__` entries in `source` that no module-level function, class,
    assignment or import of it binds, in `__all__` order."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    entries = [elt.value for node in tree.body if _is_all(node) for elt in node.value.elts]
    return [name for name in entries if name not in bound]


def test_export_scanner_flags_names_bound_nowhere_at_module_level():
    source = (
        "import os.path\nfrom math import pi as circle\n"
        "__all__ = ['f', 'C', 'K', 'T', 'a', 'b', 'os', 'circle', 'pi', 'stale', 'inner']\n"
        "def f():\n    def inner():\n        pass\n"
        "class C:\n    pass\n"
        "K = 1\nT: int = 2\na, b = 3, 4\n"
    )
    assert unresolved_exports(source) == ["pi", "stale", "inner"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_export_names_a_module_level_binding(path):
    """A stale `__all__` entry outlives the function it named and breaks
    `from module import *`."""
    assert unresolved_exports(path.read_text()) == []


def _names_config(annotation) -> bool:
    return annotation is not None and "RunConfig" in ast.unparse(annotation)


def unread_config_fields(sources: list[str]) -> list[str]:
    """RunConfig fields that no function in `sources` reads, RunConfig.validate aside.

    A read is an attribute load on a name holding a RunConfig: a parameter
    annotated RunConfig, a name assigned from an expression that calls
    RunConfig or a function annotated to return one, or `self` in a
    RunConfig method.
    """
    nodes = [n for source in sources for n in ast.walk(ast.parse(source))]
    config = next(n for n in nodes if isinstance(n, ast.ClassDef) and n.name == "RunConfig")
    fields = [s.target.id for s in config.body if isinstance(s, ast.AnnAssign)]
    methods = [f for f in config.body if isinstance(f, ast.FunctionDef)]
    functions = [n for n in nodes if isinstance(n, ast.FunctionDef)]
    makers = {"RunConfig"} | {f.name for f in functions if _names_config(f.returns)}
    read = set()
    for fn in functions:
        if fn in methods and fn.name == "validate":
            continue
        holders = {a.arg for a in fn.args.args + fn.args.kwonlyargs if _names_config(a.annotation)}
        if fn in methods:
            holders.add("self")
        for n in ast.walk(fn):
            if isinstance(n, ast.Assign) and any(
                isinstance(c, ast.Call) and ast.unparse(c.func).split(".")[0] in makers
                for c in ast.walk(n.value)
            ):
                holders |= {t.id for t in n.targets if isinstance(t, ast.Name)}
        read |= {
            n.attr
            for n in ast.walk(fn)
            if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Name)
            and n.value.id in holders
        }
    return [f for f in fields if f not in read]


def test_config_scanner_flags_fields_read_only_by_validate_or_never():
    source = (
        "class RunConfig:\n    a: int = 1\n    b: int = 2\n    c: int = 3\n    e: int = 4\n"
        "    def validate(self):\n        assert self.c > 0\n"
        "    def record(self):\n        return self.e\n"
        "def load(args) -> RunConfig:\n    cfg = RunConfig.load(args.path) if args.path else RunConfig()\n"
        "    cfg.b = args.b\n    return cfg\n"
        "def use(config: RunConfig, other):\n    return config.a + other.b\n"
    )
    assert unread_config_fields([source]) == ["b", "c"]


def test_every_config_field_is_read():
    assert unread_config_fields([path.read_text() for path in MODULES]) == []


def test_model_fields_are_one_set(tmp_path):
    """The fields a Model is built from, RunConfig.model_record() and the
    model record a checkpoint stores name the same fields."""
    model = Model(small_schema(), RunConfig(d=8, n_layers=1, heads=2, ffn_dim=16, d_prime=32))
    keywords = set(model.fields)
    assert keywords == set(RunConfig().model_record())
    model.save(tmp_path / "m.ckpt", {})
    record, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert set(record["model"]) == keywords


# parameter and field names that stand for a RunConfig field under another name
CONFIG_ALIASES = {
    "length_scale": "gp_length_scale",
    "ridge": "gp_ridge",
    "gamma": "focal_gamma",
    "tau": "contrastive_tau",
    "criterion": "asset_criterion",
    "asset_seed": "seed",
}


def config_defaults(source: str, module: str, fields) -> list[str]:
    """Parameter defaults and dataclass-field defaults in `source` whose name
    is one of `fields` (the RunConfig fields) or a CONFIG_ALIASES key, as
    'module.Qualified.name.param', RunConfig's own fields aside."""
    names = set(fields) | set(CONFIG_ALIASES)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name != "RunConfig":
                    found.extend(
                        f"{scope}{child.name}.{s.target.id}" for s in child.body
                        if isinstance(s, ast.AnnAssign) and s.value is not None
                        and isinstance(s.target, ast.Name) and s.target.id in names
                    )
                    visit(child, f"{scope}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                defaulted = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                defaulted += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found.extend(f"{scope}{child.name}.{arg.arg}" for arg, _ in defaulted if arg.arg in names)
                visit(child, f"{scope}{child.name}.")

    visit(ast.parse(source), f"{module}.")
    return found


def test_config_default_scanner_finds_parameters_fields_and_aliases():
    source = (
        "class RunConfig:\n    d: int = 32\n    seed: int = 0\n"
        "class Layer:\n    d: int = 8\n    width: int = 4\n"
        "    def __init__(self, d, rng, seed=0, *, ridge=1.0, other=2):\n        pass\n"
        "def select(assets, k, criterion='recency', asset_seed=None):\n    pass\n"
    )
    assert config_defaults(source, "m", ["d", "seed", "gp_ridge", "asset_criterion"]) == [
        "m.Layer.d", "m.Layer.__init__.seed", "m.Layer.__init__.ridge", "m.select.criterion", "m.select.asset_seed",
    ]


# the defaults that repeat a RunConfig field and stay, with the reason each stays
CONFIG_DEFAULTS_ALLOWED = {
    "data.TaskSpec.gamma": "bench/workloads.py builds the serve fixture's tasks as TaskSpec(TASK, 2)",
    "trunk.TrunkConfig.spectral_norm": "bench/tests/test_bench_harness.py builds a TrunkConfig without it",
    "config.LossWeights.tau": "criterion 7 builds LossWeights from its six weights alone",
    "metrics.MetricsReport.folds": "a list of fold results, not the RunConfig folds count",
}


def test_run_defaults_are_declared_once():
    """RunConfig declares every run default; a module constructor or function
    takes the value from it, or keeps an allowlisted default."""
    fields = list(RunConfig.__dataclass_fields__)
    found = [d for path in MODULES for d in config_defaults(path.read_text(), path.stem, fields)]
    assert sorted(found) == sorted(CONFIG_DEFAULTS_ALLOWED)


# state plumbing that the one walk in nn.Module replaces
PLUMBING = {"parameters", "buffers", "named_modules", "load_buffers", "backbone_parameters", "spectral_layers"}


def state_plumbing(source: str, module: str) -> list[str]:
    """Definitions of a PLUMBING name in `source`, as 'module.Class.name' or
    'module.name', apart from nn.Module's own."""
    tree = ast.parse(source)
    scopes = [(f"{module}.{n.name}.", n.body) for n in tree.body if isinstance(n, ast.ClassDef)]
    scopes.append((f"{module}.", tree.body))
    return [
        prefix + f.name
        for prefix, body in scopes
        for f in body
        if isinstance(f, ast.FunctionDef) and f.name in PLUMBING and prefix != "nn.Module."
    ]


def test_plumbing_scanner_spares_only_nn_module():
    source = (
        "class Module:\n    def parameters(self):\n        pass\n"
        "class Head(Module):\n    def buffers(self):\n        pass\n    def predict(self):\n        pass\n"
        "def spectral_layers(mods):\n    pass\n"
    )
    assert state_plumbing(source, "nn") == ["nn.Head.buffers", "nn.spectral_layers"]
    assert state_plumbing(source, "model") == ["model.Module.parameters", "model.Head.buffers", "model.spectral_layers"]


def test_no_hand_written_state_plumbing():
    assert [name for path in MODULES for name in state_plumbing(path.read_text(), path.stem)] == []


# the attributes whose arrays something else is made from and kept: a
# weight's `.data` (a spectral layer's identity-keyed no_grad W/sigma) and
# an SNGP head's `precision` (its `factor`, made once after a fit); the
# head's `omega` and `factor` are set whole, by a fit, a load or a
# re-layout, like its other arrays
CACHE_KEYS = ("data", "omega", "precision", "factor")


def data_writes(source: str) -> list[str]:
    """Statements that write into a CACHE_KEYS array rather than assign a
    new one: `x.data[...] = y`, `x.factor[i] += y` or `x.data -= y`, as
    'line: target'.

    Each cache holds while its key is the same array object, so a write
    into that array would leave it stale.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = [t for target in node.targets for t in ast.walk(target)]
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for t in targets:
            into_data = (isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
                         and t.value.attr in CACHE_KEYS)
            onto_data = isinstance(node, ast.AugAssign) and isinstance(t, ast.Attribute) and t.attr in CACHE_KEYS
            if into_data or onto_data:
                found.append(f"{node.lineno}: {ast.unparse(t)}")
    return found


def test_data_write_scanner_flags_only_writes_into_data():
    source = (
        "p.data[...] = best\n"
        "p.data -= lr * g\n"
        "w.data[1, 2] += h\n"
        "a, self.weight.data[0] = 1, 2\n"
        "p.data = p.data - lr * g\n"
        "data[...] = 0\n"
        "x.grad[...] = 0\n"
        "y = x.data[0]\n"
        "x.data.sum()\n"
        "head.factor[:4] = 0\n"
        "self.precision += ridge\n"
        "self.omega[0, 0] *= 2\n"
        "self.factor = packed\n"
        "lam[0, 0] += ridge\n"
    )
    assert data_writes(source) == [
        "1: p.data[...]", "2: p.data", "3: w.data[1, 2]", "4: self.weight.data[0]",
        "10: head.factor[:4]", "11: self.precision", "12: self.omega[0, 0]",
    ]


def test_no_writes_into_data_arrays():
    assert [f"{path.name}:{w}" for path in MODULES for w in data_writes(path.read_text())] == []


def global_rebinds(source: str, module: str) -> list[str]:
    """Names that `global` statements in `source` rebind, as 'module.name'."""
    return sorted({f"{module}.{name}" for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Global)
                   for name in n.names})


def test_global_scanner_lists_each_rebound_name_once():
    source = (
        "_A = 0\n_B = 1\n"
        "def f():\n    global _A\n    _A = 1\n"
        "class C:\n    def g(self):\n        global _A, _B\n        _B = _A\n"
    )
    assert global_rebinds(source, "m") == ["m._A", "m._B"]


def test_no_grad_is_the_only_global_mode():
    """Only tensor's grad switch and its multiply-accumulate counter are
    rebound at run time: training behaviour is passed explicitly, never
    switched by a hidden module global."""
    rebound = sorted(name for path in MODULES for name in global_rebinds(path.read_text(), path.stem))
    assert rebound == ["tensor._GRAD_ENABLED", "tensor._MAC_COUNT"]


def calls_to(source: str, name: str) -> list[int]:
    """Lines that call `name`, bare or as an attribute (`data.name(...)`)."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)) == name
    )


def test_call_scanner_finds_bare_and_attribute_calls_only():
    source = (
        "from .data import select_top_k_assets\n"
        "def f(a):\n    return select_top_k_assets(a, 2)\n"
        "def g(a):\n    pick = select_top_k_assets\n    return data.select_top_k_assets(a, 1), pick\n"
        "def select_top_k_assets(a, k):\n    return a[:k]\n"
    )
    assert calls_to(source, "select_top_k_assets") == [3, 6]


def test_only_the_encoder_selects_assets():
    """The encoder's criterion and seed pick a row's assets; every other
    module (pre-training's targets included) reads them off the encoder's
    inputs, so two modules cannot disagree on the pick."""
    callers = [path.name for path in MODULES if calls_to(path.read_text(), "select_top_k_assets")]
    assert callers == ["encoder.py"]


def test_only_the_trainer_takes_a_step():
    """`optim.Trainer` builds the optimizer, backpropagates and steps for
    both training stages, so its checks (a finite loss) and its schedule
    hold for each. tensor.py's one `backward` call is the graph walk of
    `Tensor.backward` calling each node's closure."""
    callers = {name: [path.name for path in MODULES if calls_to(path.read_text(), name)]
               for name in ("AdamW", "zero_grad", "backward")}
    assert callers == {"AdamW": ["optim.py"], "zero_grad": ["optim.py"], "backward": ["optim.py", "tensor.py"]}


# gc calls that change process-global collector state
GC_SWITCHES = ("disable", "freeze", "set_threshold")


def test_library_leaves_the_garbage_collector_alone():
    """Collector state is the process's, not the library's: a loader that
    turned collection off for speed would leave it off, or change it, for
    the caller's program."""
    source = "import gc\ngc.disable()\nfrom gc import freeze\nfreeze()\ngc.collect()\n"
    assert [calls_to(source, name) for name in GC_SWITCHES] == [[2], [4], []]
    found = [f"{path.name}:{name}:{line}" for path in MODULES for name in GC_SWITCHES
             for line in calls_to(path.read_text(), name)]
    assert found == []


def attribute_reads(source: str, attr: str) -> list[int]:
    """Lines that use an attribute `attr` other than by calling it as a
    method: `s.values[...]` and `s.values.get(...)` count, `d.values()` does not."""
    tree = ast.parse(source)
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == attr and id(n) not in called)


def test_attribute_scanner_skips_method_calls():
    source = (
        "def f(s, d):\n"
        "    a = s.values.get('x')\n"
        "    b = list(d.values())\n"
        "    return s.values['y'], a, b, values\n"
        "def g(s):\n    s.values = {}\n"
    )
    assert attribute_reads(source, "values") == [2, 4, 6]


def test_only_io_and_featurization_read_snapshot_values():
    """`Snapshot.values` holds raw per-kind values. Reading them anywhere but
    data.py (IO) and encoder.py (featurization) would be a second parser
    that can disagree with the encoder's, as feature selection's own parser
    once did; CutMix mixes the featurized arrays."""
    readers = [path.name for path in MODULES if attribute_reads(path.read_text(), "values")]
    assert readers == ["data.py", "encoder.py"]


def literal_seeded_generators(source: str) -> list[str]:
    """Calls of `default_rng`, bare or as an attribute, whose arguments are
    all literals (`default_rng(0)`, `default_rng(seed=[1, 2])`), as 'line: call'."""
    return [
        f"{n.lineno}: {ast.unparse(n)}"
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)) == "default_rng"
        and (n.args or n.keywords)
        and not any(isinstance(m, ast.Name) for arg in n.args + n.keywords for m in ast.walk(arg))
    ]


def test_literal_seed_scanner_flags_only_literal_seeds():
    source = (
        "a = np.random.default_rng(0)\n"
        "b = default_rng(seed=[1, 2])\n"
        "c = rng or np.random.default_rng(-3)\n"
        "d = np.random.default_rng(seed)\n"
        "e = np.random.default_rng(cfg.seed + 1)\n"
        "f = np.random.default_rng([seed, 1])\n"
        "g = np.random.default_rng()\n"
    )
    assert literal_seeded_generators(source) == [
        "1: np.random.default_rng(0)", "2: default_rng(seed=[1, 2])", "3: np.random.default_rng(-3)",
    ]


def test_no_library_generator_is_seeded_with_a_literal():
    """Library randomness comes from a seed or generator the caller passes:
    a literal seed would draw the same numbers whatever the run's seed."""
    found = [f"{path.name}:{c}" for path in MODULES for c in literal_seeded_generators(path.read_text())]
    assert found == []


def lone_definitions(sources: dict) -> list[str]:
    """Functions and classes (dunder methods aside) in `sources`, a map of
    module name to source, whose name appears on no line of any of them but
    the one that defines it, as 'module.name'. A name, an attribute or a
    string equal to the name counts, as getattr and op labels name things by
    string; an `__all__` entry does not, since exporting is not using."""
    defined, seen = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        exports = {id(n) for node in tree.body if _is_all(node) for n in ast.walk(node)}
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                if not (n.name.startswith("__") and n.name.endswith("__")):
                    defined.append((module, n.lineno, n.name))
            elif isinstance(n, ast.Name):
                seen.setdefault(n.id, set()).add((module, n.lineno))
            elif isinstance(n, ast.Attribute):
                seen.setdefault(n.attr, set()).add((module, n.lineno))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in exports:
                seen.setdefault(n.value, set()).add((module, n.lineno))
    return [f"{module}.{name}" for module, line, name in defined if not seen.get(name, set()) - {(module, line)}]


def test_lone_definition_scanner_counts_names_attributes_and_strings_not_exports():
    sources = {
        "a": (
            "__all__ = ['unused', 'Used']\n"
            "def unused():\n    pass\n"
            "class Used:\n    def method(self):\n        return helper()\n"
            "    def __len__(self):\n        return 0\n"
            "def helper():\n    return 'by_label'\n"
            "def by_label():\n    pass\n"
        ),
        "b": "from .a import Used\ndef caller():\n    return Used().method\n",
    }
    assert lone_definitions(sources) == ["a.unused", "b.caller"]


# public API that only tests, demos and the benchmark call, with the reason it stays
LONE_ALLOWED = {
    "tensor.mac_count": "criterion 6 and the ISA cost tests count multiply-accumulates with it",
    "tensor.reset_mac_count": "zeroes the counter mac_count reads, before the counted call",
    "data.save_dataset": "load_dataset's inverse: tests and bench/ write their datasets with it",
    "finetune.fit_covariance": "the Laplace fit on whole feature and probability arrays: "
                               "the covariance pass's chunked fit is tested bitwise against it",
}


def test_every_library_function_and_class_is_named_elsewhere():
    """A function or class that no other library line names is dead code or
    public API; only the allowlisted public API may stay."""
    found = lone_definitions({path.stem: path.read_text() for path in MODULES})
    assert sorted(found) == sorted(LONE_ALLOWED)


def tensors_held(value) -> list[str]:
    """Paths to every Tensor that `value` reaches (`conftest.held_values`)."""
    return [path for path, v in held_values(value) if isinstance(v, Tensor)]


def test_closure_scanner_finds_tensors_in_cells_nested_closures_containers_and_nodes():
    t, arr = Tensor(np.ones(2)), np.ones(2)
    leaf = Node((), None, (2,), np.float64, "leaf")

    def direct(g):
        return t, arr

    def helper():
        return t

    def nested(g):
        return helper()

    def boxed(g):
        return pair, table

    pair, table = (arr, [t]), {"k": Tensor(np.zeros(1))}
    graph = Node((leaf,), direct, (2,), np.float64, "op")

    def clean(g):
        return arr, leaf, 2.0

    assert tensors_held(direct) == ["root.t"]
    assert tensors_held(nested) == ["root.helper.t"]
    assert sorted(tensors_held(boxed)) == ["root.pair[1][0]", "root.table['k']"]
    assert tensors_held(Node((graph,), clean, (2,), np.float64, "op")) == ["root.parents[0].backward.t"]
    assert tensors_held(clean) == []


def test_no_backward_closure_holds_a_tensor():
    """A closure holding a Tensor keeps its value alive until the graph is
    walked back, whether or not the backward reads it: closures capture
    parent nodes and the arrays they read. Scanned from each op's node, so
    every closure upstream of it, parents' included, is checked."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    outs = every_op(x, w)
    assert all(o._node is not None for o in outs)
    assert [(o._node.op, path) for o in outs for path in tensors_held(o._node)] == []


FUSED_KERNELS = ("ffn", "multi_head_attention", "numeric_encoding")


def stray_makes(source: str) -> list[int]:
    """Lines that call `_make` outside the fused kernels, whose backward
    shares one recompute across their parents; every other op records its
    node through `Tensor._record`."""
    tree = ast.parse(source)
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in FUSED_KERNELS
              for n in ast.walk(f)}
    return sorted(
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Call) and id(n) not in inside
        and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)) == "_make"
    )


def test_make_scanner_spares_only_the_fused_kernels():
    source = (
        "class Tensor:\n"
        "    def _record(data, parents, grads, op):\n        return Tensor._make(data, parents, bwd, op)\n"
        "def ffn(x, w1, b1, w2, b2):\n    return Tensor._make(d, (x, w1, b1, w2, b2), bwd, 'ffn')\n"
        "def multi_head_attention(x, *ws):\n    def out():\n        return _make(d, (x, *ws), bwd, 'a')\n"
        "    return out()\n"
        "def add(a, b):\n    return Tensor._make(a.data + b.data, (a, b), bwd, 'add')\n"
        "def neg(x):\n    return _make(-x.data, parents=(x,), backward=bwd, op='neg')\n"
        "make = Tensor._make\n"
    )
    assert stray_makes(source) == [3, 11, 13]


def test_only_the_fused_kernels_wire_their_own_node():
    """`Tensor._record` wires a node from one gradient rule per parent, and
    keeps any two parents from sharing a gradient array; an op that called
    `_make` would be a second path for the same steps."""
    found = [f"{path.name}:{line}" for path in MODULES for line in stray_makes(path.read_text())]
    assert found == []
