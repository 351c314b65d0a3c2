/* CPU affinity for the benchmark's own process (Linux). */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

/* The CPUs the calling thread may run on, in increasing order; empty
   when the kernel does not say. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = CPU_SETSIZE - 1; c >= 0; c--)
      if (CPU_ISSET(c, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(c));
        Store_field(cell, 1, list);
        list = cell;
      }
  CAMLreturn(list);
}

/* Restrict the calling thread to one CPU; false if the kernel refused. */
value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
