/* Monotonic nanosecond clock for span timestamps. The OCaml standard
   library only offers microsecond wall time, too coarse for spans of
   a few hundred nanoseconds. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}
