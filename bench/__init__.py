"""Floor-normalised benchmark of the ``repro`` serving and inference stack.

Run ``python3 bench/run.py --help``; see ``bench/README.md``.
"""
