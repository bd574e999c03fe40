"""vectorization-guard on synthetic functions: dataflow and escapes."""

from __future__ import annotations

from repro.analyze import Project
from repro.analyze.vectorization import VectorizationRule


def _run(source, scope=("m",)):
    project = Project.from_sources({"m": source})
    return VectorizationRule(scope=scope).check(project)


class TestFlagging:
    def test_for_loop_over_np_result_is_flagged(self):
        source = (
            "import numpy as np\n"
            "def curve(xs):\n"
            "    arr = np.asarray(xs)\n"
            "    out = []\n"
            "    for v in arr:\n"
            "        out.append(v * 2)\n"
            "    return out\n"
        )
        findings = _run(source)
        assert len(findings) == 1
        assert findings[0].line == 5

    def test_comprehension_over_annotated_array_param_is_flagged(self):
        source = (
            "import numpy as np\n"
            "def curve(xs: np.ndarray):\n"
            "    return [v * 2 for v in xs]\n"
        )
        assert len(_run(source)) == 1

    def test_zip_and_enumerate_propagate_array_likeness(self):
        source = (
            "import numpy as np\n"
            "def curve(xs: np.ndarray, ys: np.ndarray):\n"
            "    a = [x + y for x, y in zip(xs, ys)]\n"
            "    b = [i * v for i, v in enumerate(ys)]\n"
            "    return a, b\n"
        )
        assert len(_run(source)) == 2

    def test_arithmetic_propagates_array_likeness(self):
        source = (
            "import numpy as np\n"
            "def curve(xs: np.ndarray):\n"
            "    scaled = xs * 2.0 + 1.0\n"
            "    return [v for v in scaled]\n"
        )
        assert len(_run(source)) == 1


class TestEscapesAndExemptions:
    def test_tolist_is_the_blessed_escape(self):
        source = (
            "import numpy as np\n"
            "def curve(xs: np.ndarray):\n"
            "    return [v for v in xs.tolist()]\n"
        )
        assert _run(source) == []

    def test_while_loops_are_exempt(self):
        source = (
            "import numpy as np\n"
            "def bisect(lo: np.ndarray, hi: np.ndarray):\n"
            "    rounds = 0\n"
            "    while rounds < 60:\n"
            "        mid = (lo + hi) / 2\n"
            "        lo = np.where(mid > 0, mid, lo)\n"
            "        rounds += 1\n"
            "    return lo\n"
        )
        assert _run(source) == []

    def test_list_of_arrays_iterates_the_stack_not_an_axis(self):
        source = (
            "import numpy as np\n"
            "def curve(xs: np.ndarray):\n"
            "    candidates: list[np.ndarray] = [xs, xs * 2]\n"
            "    return [c.sum() for c in candidates]\n"
        )
        assert _run(source) == []

    def test_plain_python_loops_stay_clean(self):
        source = (
            "def scalar(items):\n"
            "    return [i * 2 for i in items]\n"
        )
        assert _run(source) == []


class TestScope:
    def test_class_scoped_entry_checks_only_that_class(self):
        source = (
            "import numpy as np\n"
            "class Fast:\n"
            "    def run(self, xs: np.ndarray):\n"
            "        return [v for v in xs]\n"
            "class Oracle:\n"
            "    def run(self, xs: np.ndarray):\n"
            "        return [v for v in xs]\n"
        )
        findings = _run(source, scope=("m:Fast",))
        assert len(findings) == 1
        assert "Fast.run" in findings[0].message

    def test_glob_entry_checks_only_matching_functions(self):
        # How the family table is scoped: numpy kernels in, oracles out.
        source = (
            "import numpy as np\n"
            "def _numpy_curve(xs: np.ndarray):\n"
            "    return [v for v in xs]\n"
            "def _oracle_curve(xs: np.ndarray):\n"
            "    return [v for v in xs]\n"
        )
        findings = _run(source, scope=("m:_numpy_*",))
        assert len(findings) == 1
        assert "_numpy_curve" in findings[0].message

    def test_default_scope_covers_the_family_numpy_kernels(self):
        from repro.analyze.vectorization import DEFAULT_SCOPE

        assert "repro.graph.families:_numpy_*" in DEFAULT_SCOPE

    def test_out_of_scope_modules_are_ignored(self):
        source = (
            "import numpy as np\n"
            "def curve(xs: np.ndarray):\n"
            "    return [v for v in xs]\n"
        )
        project = Project.from_sources({"m": source})
        assert VectorizationRule(scope=("other",)).check(project) == []
