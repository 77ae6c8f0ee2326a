# The perf-ledger benchmark binary, defined in the repository's top-level
# directory scope by attach.cmake (configure through run.py). It links the
# repository's libraries exactly as the repo builds them and drives them
# through their public entry points.
add_executable(topfull_ledger
  ${CMAKE_CURRENT_LIST_DIR}/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/gateway.cpp
  ${CMAKE_CURRENT_LIST_DIR}/probes.cpp
  ${CMAKE_CURRENT_LIST_DIR}/sim_workloads.cpp
)
set_target_properties(topfull_ledger PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/ledger)
target_link_libraries(topfull_ledger PRIVATE topfull_exp)
target_compile_definitions(topfull_ledger PRIVATE
  LEDGER_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  LEDGER_SANITIZE="${TOPFULL_SANITIZE}")
