"""cellray: geometric-optics channel simulation through arrays of cell lenses."""

__version__ = "0.1.0"
