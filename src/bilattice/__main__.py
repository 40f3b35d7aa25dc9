"""``python -m bilattice``: the command line of ``cli_io.main``."""

from .cli_io import main

raise SystemExit(main())
