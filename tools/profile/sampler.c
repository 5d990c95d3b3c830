/* A sampling profiler loaded with LD_PRELOAD. On each SIGPROF (an
 * ITIMER_PROF tick of process CPU time, RATE_HZ a second, in practice
 * capped by the kernel's tick) it records the
 * interrupted instruction and the return addresses of the
 * frame-pointer chain. At exit it writes the process's memory map and
 * one line of hex addresses per sample to $GKAP_PROF_OUT.<pid>
 * (default gkap-prof.<pid>); symbolise.py ranks them. Build the
 * profiled program with RUSTFLAGS="-C force-frame-pointers=yes":
 *
 *   cc -O2 -shared -fPIC -o libgkapprof.so tools/profile/sampler.c
 *   LD_PRELOAD=$PWD/libgkapprof.so GKAP_PROF_OUT=/tmp/p ./program
 *   tools/profile/symbolise.py /tmp/p.<pid>
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define RATE_HZ 997
#define BUF_WORDS (1u << 21) /* 16 MB of bss; full means later samples drop */

static uintptr_t buf[BUF_WORDS];
static unsigned used; /* words of buf taken, atomically */
static int probe[2];  /* a pipe: write() from an address fails on an unmapped one */

/* Whether the 16 bytes at p (a frame's saved fp and return address) can
 * be read, asked of the kernel, not by a fault. */
static int readable(const void *p) {
    char drain[16];
    if (write(probe[1], p, 16) != 16)
        return 0;
    return read(probe[0], drain, sizeof drain) > 0;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP], *fp = (uintptr_t *)uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = uc->uc_mcontext.pc, *fp = (uintptr_t *)uc->uc_mcontext.regs[29];
#endif
    uintptr_t frames[MAX_DEPTH];
    unsigned n = 0;
    frames[n++] = pc;
    while (n < MAX_DEPTH && fp && ((uintptr_t)fp & 7) == 0 && readable(fp)) {
        uintptr_t *next = (uintptr_t *)fp[0], ret = fp[1];
        if (!ret)
            break;
        frames[n++] = ret;
        if (next <= fp) /* the stack grows down: a caller's frame sits higher */
            break;
        fp = next;
    }
    unsigned at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > BUF_WORDS)
        return;
    buf[at] = n;
    for (unsigned i = 0; i < n; i++)
        buf[at + 1 + i] = frames[i];
}

__attribute__((constructor)) static void start(void) {
    if (pipe2(probe, O_NONBLOCK | O_CLOEXEC) != 0)
        return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000000 / RATE_HZ}, {0, 1000000 / RATE_HZ}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[256];
    const char *out = getenv("GKAP_PROF_OUT");
    snprintf(path, sizeof path, "%s.%d", out ? out : "gkap-prof", (int)getpid());
    FILE *f = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!f || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(f, "map %s", line);
    fclose(maps);
    unsigned end = used < BUF_WORDS ? used : BUF_WORDS;
    for (unsigned at = 0; at < end && buf[at] && at + buf[at] < end; at += buf[at] + 1) {
        for (unsigned i = 1; i <= buf[at]; i++)
            fprintf(f, i == 1 ? "%lx" : " %lx", (unsigned long)buf[at + i]);
        fputc('\n', f);
    }
    fclose(f);
}
