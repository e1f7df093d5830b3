import os
import sys

# The benchmark's modules import each other as top-level modules (they run
# as scripts from perfbench/), so the tests see them the same way.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
