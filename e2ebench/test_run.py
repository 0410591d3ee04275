"""Tests of run.py's build-tree choice: checkouts sharing one
CARGO_TARGET_DIR each build into their own tree, and a tree configured from
another checkout is never built or run."""

import os
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


class BuildDirTest(unittest.TestCase):
    def test_each_checkout_gets_its_own_tree(self):
        with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": "/shared/target"}):
            parent = run.build_dir("/work/parent")
            change = run.build_dir("/work/change")
            self.assertEqual(parent, run.build_dir("/work/parent/"))
        self.assertNotEqual(parent, change)
        for d in (parent, change):
            self.assertEqual(os.path.dirname(d), "/shared/target")


class BuildStepsTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(".bench_run", exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=".bench_run")
        self.out = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def write_cache(self, source):
        with open(os.path.join(self.out, "CMakeCache.txt"), "w") as f:
            f.write("CMAKE_BUILD_TYPE:STRING=RelWithDebInfo\n")
            f.write("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % source)

    def test_unconfigured_tree_is_configured_then_built(self):
        steps = run.build_steps(self.out, "/work/change/e2ebench")
        self.assertEqual([s[:2] for s in steps], [["cmake", "-S"], ["cmake", "--build"]])
        self.assertIn("/work/change/e2ebench", steps[0])

    def test_own_tree_is_only_built(self):
        self.write_cache("/work/change/e2ebench")
        steps = run.build_steps(self.out, "/work/change/e2ebench")
        self.assertEqual([s[:2] for s in steps], [["cmake", "--build"]])

    def test_tree_of_another_checkout_is_refused(self):
        self.write_cache("/work/parent/e2ebench")
        self.assertIsNone(run.build_steps(self.out, "/work/change/e2ebench"))


if __name__ == "__main__":
    unittest.main()
