"""`python -m segreals` runs the `reals` command."""

from .exprcli import main

if __name__ == "__main__":
    main()
