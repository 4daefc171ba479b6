"""The ame-lab benchmark: see README.md in this directory."""
