#include "net/socket.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace darco::net
{

namespace
{

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw NetError(what + ": " + std::strerror(errno));
}

/** Resolve a numeric/DNS host into a sockaddr_in (IPv4). */
sockaddr_in
resolve(const std::string &host, u16 port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1)
        return addr;

    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
    if (rc != 0 || !res)
        throw NetError("cannot resolve host '" + host +
                       "': " + ::gai_strerror(rc));
    addr.sin_addr =
        reinterpret_cast<sockaddr_in *>(res->ai_addr)->sin_addr;
    ::freeaddrinfo(res);
    return addr;
}

} // namespace

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Socket::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
Socket::shutdownWrite()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_WR);
}

void
Socket::sendAll(const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("send");
        }
        p += n;
        len -= std::size_t(n);
    }
}

bool
Socket::recvAll(void *data, std::size_t len)
{
    char *p = static_cast<char *>(data);
    std::size_t got = 0;
    while (got < len) {
        ssize_t n = ::recv(fd_, p + got, len - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("recv");
        }
        if (n == 0) {
            if (got == 0)
                return false; // clean EOF at a message boundary
            throw NetError("peer closed mid-message (truncated)");
        }
        got += std::size_t(n);
    }
    return true;
}

bool
Socket::waitReadable(int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    for (;;) {
        int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("poll");
        }
        return rc > 0;
    }
}

Listener::Listener(const std::string &bindAddr, u16 port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket");
    sock_ = Socket(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr = resolve(bindAddr, port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throwErrno("bind " + bindAddr + ":" + std::to_string(port));
    if (::listen(fd, 64) != 0)
        throwErrno("listen");

    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &blen) != 0)
        throwErrno("getsockname");
    port_ = ntohs(bound.sin_port);
}

std::optional<Socket>
Listener::accept(int timeout_ms)
{
    if (!sock_.valid())
        return std::nullopt;
    try {
        if (!sock_.waitReadable(timeout_ms))
            return std::nullopt;
    } catch (const NetError &) {
        return std::nullopt; // closed under us
    }
    int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd < 0)
        return std::nullopt; // raced with close()
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(fd);
}

Socket
connectTo(const std::string &host, u16 port, int timeout_ms)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket");
    Socket sock(fd);

    sockaddr_in addr = resolve(host, port);

    // Non-blocking connect + poll gives a bounded wait; the socket is
    // switched back to blocking for the request/response protocol.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS)
        throwErrno("connect " + host + ":" + std::to_string(port));
    if (rc != 0) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        int pr = ::poll(&pfd, 1, timeout_ms);
        if (pr <= 0)
            throw NetError("connect " + host + ":" +
                           std::to_string(port) + ": timed out");
        int err = 0;
        socklen_t elen = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen);
        if (err != 0)
            throw NetError("connect " + host + ":" +
                           std::to_string(port) + ": " +
                           std::strerror(err));
    }
    ::fcntl(fd, F_SETFL, flags);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return sock;
}

} // namespace darco::net
