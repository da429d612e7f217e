import os
import sys

# The benchmark runs the program from the checkout's source tree.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
