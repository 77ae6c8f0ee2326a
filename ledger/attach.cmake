# Attaches the ledger to the repository's own build. run.py configures the
# top-level CMakeLists.txt with CMAKE_PROJECT_topfull_INCLUDE pointing here,
# so this file runs right after `project(topfull)`; the deferred include
# runs once the top-level CMakeLists.txt is done, so targets.cmake sees
# every library target and the repository's compile settings.
set(TOPFULL_LEDGER_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${TOPFULL_LEDGER_DIR}/targets.cmake")
