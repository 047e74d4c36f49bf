#ifndef CHAINSPLIT_NET_LISTEN_H_
#define CHAINSPLIT_NET_LISTEN_H_

#include <string>

#include "common/status.h"

namespace chainsplit {

/// Opens an IPv4 listening socket bound to `addr`:`port` (dotted quad;
/// port 0 picks an ephemeral port) with the given accept backlog.
/// Returns the listening fd; the caller owns it.
StatusOr<int> OpenListenSocket(const std::string& addr, int port,
                               int backlog);

/// The locally bound port of a listening socket (after an ephemeral
/// bind).
StatusOr<int> BoundPort(int listen_fd);

/// Sets O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd);

/// Sets TCP_NODELAY on `fd`, an accepted connection: each response is
/// small and complete, so Nagle's algorithm would only hold it back
/// until the client's delayed ACK (tens of ms for a pipelining
/// client). Every accept path calls this.
Status SetNoDelay(int fd);

}  // namespace chainsplit

#endif  // CHAINSPLIT_NET_LISTEN_H_
