"""`python -m hexreg ...` runs the hexreg command line, cli.main."""

from hexreg.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
