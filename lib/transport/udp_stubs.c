/* sendmmsg(2) and recvmmsg(2) for Transport.Udp: a run of datagrams, each
   to or from its own packed IPv4 address, in one syscall.

   The socket is non-blocking, so neither call waits, and both stubs
   keep the OCaml runtime lock.  The send stub neither allocates nor
   releases the lock, so no GC can run and move the strings while the
   kernel reads them: each datagram goes out from the OCaml string in
   place, with no copy and no staging buffer.  The receive stub writes
   into a slab outside the OCaml heap and only immediate ints into OCaml
   arrays, so it allocates nothing either. */

#define _GNU_SOURCE
#include <errno.h>
#include <stdlib.h>
#include <string.h>
#include <sys/types.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/unixsupport.h>

/* Datagrams per call.  The arrays below live on the C stack. */
#define I3_UDP_BATCH 64

/* i3_udp_sendmmsg fd bufs dsts off len sends bufs.(off) .. to dsts.(off)
   .., at most I3_UDP_BATCH of them.  A packed address is
   (ip lsl 16) lor port.  Returns how many left, in order; 0 when the
   first would block (EAGAIN) or a signal came (EINTR).  Any other
   failure of the first datagram raises Unix.Unix_error with its errno,
   and the caller tells a refused destination from a broken socket. */
CAMLprim value i3_udp_sendmmsg(value fd, value bufs, value dsts, value voff,
                               value vlen)
{
  struct mmsghdr msgs[I3_UDP_BATCH];
  struct iovec iov[I3_UDP_BATCH];
  struct sockaddr_in sin[I3_UDP_BATCH];
  long off = Long_val(voff), n = Long_val(vlen), i;
  int sent;

  if (off < 0 || n < 0 || (mlsize_t) (off + n) > Wosize_val(bufs)
      || (mlsize_t) (off + n) > Wosize_val(dsts))
    caml_invalid_argument("Transport.Udp.sendmmsg: range");
  if (n > I3_UDP_BATCH) n = I3_UDP_BATCH;
  if (n == 0) return Val_int(0);
  memset(msgs, 0, n * sizeof msgs[0]);
  memset(sin, 0, n * sizeof sin[0]);
  for (i = 0; i < n; i++) {
    value buf = Field(bufs, off + i);
    unsigned long dst = (unsigned long) Long_val(Field(dsts, off + i));
    sin[i].sin_family = AF_INET;
    sin[i].sin_port = htons((uint16_t) (dst & 0xffff));
    sin[i].sin_addr.s_addr = htonl((uint32_t) ((dst >> 16) & 0xffffffff));
    iov[i].iov_base = (void *) String_val(buf);
    iov[i].iov_len = caml_string_length(buf);
    msgs[i].msg_hdr.msg_name = &sin[i];
    msgs[i].msg_hdr.msg_namelen = sizeof sin[i];
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  sent = sendmmsg(Int_val(fd), msgs, (unsigned int) n, 0);
  if (sent >= 0) return Val_int(sent);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
    return Val_int(0);
  caml_uerror("sendmmsg", Nothing);
  return Val_unit; /* not reached */
}

/* The receive slab: [slots] slots of [slot_bytes] each, malloc'd, so the
   kernel writes outside the OCaml heap and the GC never scans or moves
   it.  glibc normally maps a block this size fresh (its mmap threshold
   starts at 128 KiB), so a page becomes resident only once a datagram
   lands on it.  The custom block holds the pointer; its finalizer frees
   the memory. */
struct i3_slab {
  char *data;
  long slots;
  long slot_bytes;
};

#define Slab_val(v) ((struct i3_slab *) Data_custom_val(v))

static void i3_slab_finalize(value v)
{
  free(Slab_val(v)->data);
}

static struct custom_operations i3_slab_ops = {
  "i3.udp.slab",
  i3_slab_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

/* i3_udp_slab_create slots slot_bytes.  The block declares no heap
   pressure: the slab is allocated once per socket and lives as long as
   it. */
CAMLprim value i3_udp_slab_create(value vslots, value vbytes)
{
  long slots = Long_val(vslots), bytes = Long_val(vbytes);
  value v;

  if (slots < 1 || slots > I3_UDP_BATCH || bytes < 1)
    caml_invalid_argument("Transport.Udp.slab_create");
  v = caml_alloc_custom(&i3_slab_ops, sizeof(struct i3_slab), 0, 1);
  Slab_val(v)->slots = slots;
  Slab_val(v)->slot_bytes = bytes;
  /* On failure the block holds NULL, and its finalizer's free(NULL) is
     harmless. */
  Slab_val(v)->data = malloc((size_t) slots * (size_t) bytes);
  if (Slab_val(v)->data == NULL) caml_raise_out_of_memory();
  return v;
}

/* i3_udp_recvmmsg fd slab lens srcs max receives up to [max] (at most the
   slab's slot count) datagrams, datagram i into slot i.  It writes
   datagram i's length to lens.(i) and its packed IPv4 source to
   srcs.(i), or -1 for a source that is not IPv4.  Returns how many
   arrived; 0 when none is queued (EAGAIN) or a signal came (EINTR).  Any
   other failure raises Unix.Unix_error.  Only immediate ints are stored
   into the arrays, so no write barrier is needed. */
CAMLprim value i3_udp_recvmmsg(value fd, value vslab, value lens, value srcs,
                               value vmax)
{
  struct i3_slab *s = Slab_val(vslab);
  struct mmsghdr msgs[I3_UDP_BATCH];
  struct iovec iov[I3_UDP_BATCH];
  struct sockaddr_in sin[I3_UDP_BATCH];
  long n = Long_val(vmax), i;
  int got;

  if (n < 1 || n > s->slots || (mlsize_t) n > Wosize_val(lens)
      || (mlsize_t) n > Wosize_val(srcs))
    caml_invalid_argument("Transport.Udp.recvmmsg: range");
  memset(msgs, 0, n * sizeof msgs[0]);
  for (i = 0; i < n; i++) {
    iov[i].iov_base = s->data + i * s->slot_bytes;
    iov[i].iov_len = (size_t) s->slot_bytes;
    msgs[i].msg_hdr.msg_name = &sin[i];
    msgs[i].msg_hdr.msg_namelen = sizeof sin[i];
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  got = recvmmsg(Int_val(fd), msgs, (unsigned int) n, 0, NULL);
  if (got < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return Val_int(0);
    caml_uerror("recvmmsg", Nothing);
  }
  for (i = 0; i < got; i++) {
    Field(lens, i) = Val_long(msgs[i].msg_len);
    if (msgs[i].msg_hdr.msg_namelen == sizeof sin[i]
        && sin[i].sin_family == AF_INET)
      Field(srcs, i) =
          Val_long(((long) ntohl(sin[i].sin_addr.s_addr) << 16)
                   | (long) ntohs(sin[i].sin_port));
    else
      Field(srcs, i) = Val_long(-1);
  }
  return Val_int(got);
}

/* i3_udp_slab_sub slab i len copies the first [len] bytes of slot [i]
   into a fresh string of exactly [len] bytes.  The source pointer is
   taken before the allocation, which may move the custom block but
   never the malloc'd slab. */
CAMLprim value i3_udp_slab_sub(value vslab, value vi, value vlen)
{
  struct i3_slab *s = Slab_val(vslab);
  long i = Long_val(vi), len = Long_val(vlen);
  const char *src;

  if (i < 0 || i >= s->slots || len < 0 || len > s->slot_bytes)
    caml_invalid_argument("Transport.Udp.slab_sub: range");
  src = s->data + i * s->slot_bytes;
  return caml_alloc_initialized_string((mlsize_t) len, src);
}
