"""A frozen copy of moldae's modules, without the CLI: the yardstick of bench/reference.py.

The modules are moldae's as they stood when the benchmark was written, copied
byte for byte, and `digests.json` pins them: edit them and every run stops at
set-up. Changes to the program go to src/moldae, never here.
"""
