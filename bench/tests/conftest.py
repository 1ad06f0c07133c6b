import sys

from bench import ROOT

# the tracer test imports the library in-process
sys.path.insert(0, str(ROOT / "src"))
