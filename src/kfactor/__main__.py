"""`python -m kfactor`: the same command line as the kfactor executable."""
import sys

from .cli import main

sys.exit(main())
