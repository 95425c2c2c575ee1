"""Access to the property and network files shipped with the package."""

from importlib import resources

__all__ = ["shipped_path"]


def shipped_path(name: str):
    """Filesystem path of a shipped data file, e.g. 'phi5.prop'."""
    ref = resources.files("relucheck") / "props" / name
    if not ref.is_file():
        raise FileNotFoundError(f"no shipped data file named {name!r}")
    return ref
