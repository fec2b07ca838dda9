# Adds the benchmark driver to the repository's own CMake project.
#
# perfbench/run.py configures the repository root with
#   -DCMAKE_PROJECT_pim_INCLUDE=<this file>
# so perfbench_driver and pimd are compiled from one configuration with the
# repository's flags and build type; nothing outside perfbench/ changes.
# CMake includes this file right after `project(pim)`, before the
# library targets exist; target_link_libraries resolves the names at
# generate time.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

add_executable(perfbench_driver
  ${PERFBENCH_DIR}/src/main.cpp
  ${PERFBENCH_DIR}/src/harness.cpp
  ${PERFBENCH_DIR}/src/cold_fit.cpp
  ${PERFBENCH_DIR}/src/golden_signoff.cpp
  ${PERFBENCH_DIR}/src/warm_serve.cpp
)
target_compile_options(perfbench_driver PRIVATE -Wall -Wextra)
target_compile_definitions(perfbench_driver PRIVATE
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
target_link_libraries(perfbench_driver PRIVATE
  pim_api pim_sta pim_charlib pim_models pim_cache pim_exec pim_obs pim_util)
