/* sendmmsg(2) for Transport.Udp: send a run of datagrams, each to its own
   packed IPv4 address, in one syscall.

   The socket is non-blocking, so the call never waits, and the stub
   keeps the OCaml runtime lock.  It neither allocates nor releases the
   lock, so no GC can run and move the strings while the kernel reads
   them: each datagram goes out from the OCaml string in place, with no
   copy and no staging buffer. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/types.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>

#include <caml/mlvalues.h>
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
