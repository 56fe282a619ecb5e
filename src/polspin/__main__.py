"""`python -m polspin`: the same command line as the `polspin` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
