//! Minimal stackful coroutines ("fibers") for the engine.
//!
//! The engine runs every simulated node — and every DSM service loop —
//! as a cooperatively scheduled fiber on a single OS thread. Fibers are
//! what let the engine keep `sp2sim`'s blocking programming model
//! (`recv_match` just blocks) without OS threads: a blocking operation
//! saves the fiber's full call stack and switches to the scheduler in a
//! few dozen nanoseconds.
//!
//! The implementation is the classic boost-context design: a tiny
//! assembly routine saves the callee-saved register set and the stack
//! pointer, then restores another context's. Supported targets are
//! x86-64 (System V, tested) and aarch64 (AAPCS64); there is no other
//! engine, so any other architecture is a compile error.
//!
//! Stacks are heap allocations (the build environment provides no
//! `mmap` guard pages); each stack ends in a canary word that is
//! checked when the fiber completes, turning a silent overflow into a
//! loud panic. The default stack is 1 MiB, overridable through the
//! `SP2SIM_FIBER_STACK_KIB` environment variable (read once per
//! process).
//!
//! A sweep runs thousands of short clusters on one thread, each wanting
//! the same 16 stacks, so completed fibers park their stacks in a
//! thread-local list ([`Fiber::recycle`]) and [`Fiber::new`] takes from
//! it before asking the allocator.

use std::cell::{Cell, RefCell};
use std::mem::MaybeUninit;
use std::sync::OnceLock;

/// Stack size fallback (bytes).
const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// Canary pattern written at the far (overflow) end of each stack.
const CANARY: u128 = 0xDEAD_FACE_CAFE_F00D_DEAD_FACE_CAFE_F00D;

/// Number of canary words guarding the stack end.
const CANARY_WORDS: usize = 4;

/// A fiber's backing store.
type Stack = Box<[MaybeUninit<u128>]>;

/// Most stacks a thread keeps parked: the nodes and service loops of a
/// 16-node cluster.
const MAX_SPARE_STACKS: usize = 32;

thread_local! {
    /// Stacks of completed fibers, ready for this thread's next cluster.
    static SPARE_STACKS: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// A stack: a parked one when there is one, else a fresh allocation.
/// Every stack of a process is [`stack_bytes`] long.
fn take_stack() -> Stack {
    SPARE_STACKS
        .with_borrow_mut(Vec::pop)
        .unwrap_or_else(|| Box::new_uninit_slice(stack_bytes() / std::mem::size_of::<u128>()))
}

/// Configured stack size in bytes. The environment is read once: the
/// lookup takes its lock and builds a `String`, and every fiber of every
/// cluster asks.
pub(crate) fn stack_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| {
        std::env::var("SP2SIM_FIBER_STACK_KIB")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .map(|kib| (kib * 1024).max(64 * 1024))
            .unwrap_or(DEFAULT_STACK_BYTES)
    })
}

/// A suspended or running fiber: its stack plus the saved stack pointer.
pub(crate) struct Fiber {
    /// 16-byte aligned backing store; the stack grows downwards from
    /// the end of this allocation. Deliberately uninitialized (only the
    /// canary words and the initial context are written): the pages are
    /// faulted in lazily by actual stack use, so a deep stack reserve
    /// costs nothing per fiber.
    stack: Stack,
    /// Saved stack pointer while the fiber is suspended.
    sp: Cell<*mut u8>,
}

/// Start package handed to a new fiber's entry trampoline.
struct FiberStart {
    /// The fiber body. `None` once taken.
    body: Option<Box<dyn FnOnce()>>,
}

impl Fiber {
    /// Create a fiber that will run `body` when first resumed.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that everything `body` captures
    /// outlives the fiber (the engine runs all fibers to
    /// completion — or leaks their stacks deliberately on abnormal
    /// engine teardown — before the borrowed data goes away).
    pub(crate) unsafe fn new(body: Box<dyn FnOnce()>) -> Fiber {
        let mut stack = take_stack();
        // A recycled stack gets its canary rewritten like a fresh one.
        for w in stack.iter_mut().take(CANARY_WORDS) {
            w.write(CANARY);
        }
        let start = Box::into_raw(Box::new(FiberStart { body: Some(body) }));
        let top = stack.as_mut_ptr_range().end as *mut u8;
        let sp = arch::prepare_stack(top, start as *mut u8);
        Fiber {
            stack,
            sp: Cell::new(sp),
        }
    }

    /// Switch from the current context into this fiber, saving the
    /// current context into `from`. Returns when something switches
    /// back into `from`.
    ///
    /// # Safety
    ///
    /// `from` must be the live save-slot of the currently executing
    /// context, and this fiber must be suspended (not running, not
    /// completed beyond its final switch-out).
    pub(crate) unsafe fn resume(&self, from: &ContextSlot) {
        arch::fiber_switch(from.sp.as_ptr(), self.sp.get());
    }

    /// Switch out of this fiber back into `to` (typically the
    /// scheduler's main context), saving this fiber's state so a later
    /// [`Fiber::resume`] continues after this call.
    ///
    /// # Safety
    ///
    /// Must be called from code currently running *on this fiber*.
    pub(crate) unsafe fn suspend_into(&self, to: &ContextSlot) {
        arch::fiber_switch(self.sp.as_ptr(), to.sp.get());
    }

    /// Park a completed fiber's stack for this thread's next
    /// [`Fiber::new`] (or free it, when enough are parked already).
    /// Only for fibers that ran to completion: nothing lives on the
    /// stack any more.
    pub(crate) fn recycle(self) {
        SPARE_STACKS.with_borrow_mut(|spare| {
            if spare.len() < MAX_SPARE_STACKS {
                spare.push(self.stack);
            }
        });
    }

    /// Verify the stack canary; called when the fiber has completed.
    pub(crate) fn check_canary(&self) {
        for (i, w) in self.stack.iter().take(CANARY_WORDS).enumerate() {
            // SAFETY: the canary words were written in `new`.
            let w = unsafe { w.assume_init_ref() };
            assert!(
                *w == CANARY,
                "fiber stack overflow detected (canary word {i} clobbered); \
                 raise SP2SIM_FIBER_STACK_KIB (current stack: {} KiB)",
                self.stack.len() * std::mem::size_of::<u128>() / 1024,
            );
        }
    }
}

/// A save-slot for a context that is not itself a fiber (the scheduler's
/// own OS-thread context), or a borrowed view of a fiber's slot.
pub(crate) struct ContextSlot {
    sp: Cell<*mut u8>,
}

impl ContextSlot {
    pub(crate) fn new() -> ContextSlot {
        ContextSlot {
            sp: Cell::new(std::ptr::null_mut()),
        }
    }
}

/// The entry function every new fiber starts in (reached through the
/// architecture trampoline with `start` as its argument). Runs the body
/// and then aborts: the scheduler must never resume a completed fiber,
/// and the body itself is responsible for switching out one final time
/// (the engine's fiber bodies end with exactly that switch).
extern "C" fn fiber_entry(start: *mut u8) -> ! {
    {
        let start = unsafe { Box::from_raw(start as *mut FiberStart) };
        let body = start.body.expect("fiber body present");
        body();
    }
    // The body returned without switching away for good — that is a bug
    // in the engine (it would return into a dead trampoline frame).
    eprintln!("sp2sim fiber body returned; aborting");
    std::process::abort();
}

#[cfg(target_arch = "x86_64")]
mod arch {
    //! x86-64 System V context switching.
    //!
    //! Saved state: callee-saved GPRs (rbx, rbp, r12-r15), the MXCSR
    //! and x87 control words, and rsp. The switch pushes the state on
    //! the outgoing stack, publishes rsp through `save`, then restores
    //! the mirror image from `target`.

    /// Switch stacks: save the current context to `*save`, restore the
    /// context whose stack pointer is `target`.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn fiber_switch(save: *mut *mut u8, target: *mut u8) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First-resume trampoline: the initial `fiber_switch` "returns"
    /// here with the stack holding the start pointer. Pops it into the
    /// argument register, realigns, and calls [`super::fiber_entry`]
    /// (which never returns).
    #[unsafe(naked)]
    unsafe extern "C" fn fiber_boot() {
        core::arch::naked_asm!(
            "pop rdi",
            "sub rsp, 8",
            "call {entry}",
            "ud2",
            entry = sym super::fiber_entry,
        )
    }

    /// Lay out a fresh stack so the first switch lands in `fiber_boot`
    /// with `start` on the stack. Returns the initial stack pointer.
    pub(super) unsafe fn prepare_stack(top: *mut u8, start: *mut u8) -> *mut u8 {
        debug_assert_eq!(top as usize % 16, 0, "stack top must be 16-aligned");
        let cell = |i: isize| top.offset(-8 * i) as *mut u64;
        // Top of stack, growing down (mirror of the save sequence, so
        // the restore half of `fiber_switch` walks it bottom-up):
        //   [top -  8] 0                (backtrace terminator)
        //   [top - 16] start            (popped by fiber_boot)
        //   [top - 24] fiber_boot       (`ret` target of the switch)
        //   [top - 32..72] rbp..r15 = 0 (popped last-pushed-first)
        //   [top - 80] mxcsr | fcw<<32  (FP control state, restored first)
        *cell(1) = 0;
        *cell(2) = start as u64;
        *cell(3) = fiber_boot as unsafe extern "C" fn() as usize as u64;
        for i in 4..=9 {
            *cell(i) = 0;
        }
        let mxcsr: u32 = 0x1F80; // default: all exceptions masked
        let fcw: u16 = 0x037F; // default x87 control word
        *cell(10) = mxcsr as u64 | ((fcw as u64) << 32);
        cell(10) as *mut u8
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    //! AArch64 (AAPCS64) context switching: saves x19-x28, fp, lr and
    //! d8-d15. The first resume `ret`s to `fiber_boot` with the start
    //! pointer pre-loaded into the restored x19.

    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn fiber_switch(save: *mut *mut u8, target: *mut u8) {
        core::arch::naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp, #0]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x2, sp",
            "str x2, [x0]",
            "mov sp, x1",
            "ldp x19, x20, [sp, #0]",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "add sp, sp, #160",
            "ret",
        )
    }

    #[unsafe(naked)]
    unsafe extern "C" fn fiber_boot() {
        core::arch::naked_asm!(
            "mov x0, x19",
            "bl {entry}",
            "brk #1",
            entry = sym super::fiber_entry,
        )
    }

    pub(super) unsafe fn prepare_stack(top: *mut u8, start: *mut u8) -> *mut u8 {
        debug_assert_eq!(top as usize % 16, 0, "stack top must be 16-aligned");
        let sp = top.offset(-160);
        std::ptr::write_bytes(sp, 0, 160);
        // x19 slot (offset 0): the start pointer, moved to x0 by boot.
        *(sp as *mut u64) = start as u64;
        // x30 slot (offset 88): the boot trampoline, `ret` target.
        *(sp.offset(88) as *mut u64) = fiber_boot as unsafe extern "C" fn() as usize as u64;
        sp
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!(
    "sp2sim runs every simulated node as a fiber and has context-switch code for x86-64 and \
     aarch64 only; porting means adding an `arch` module to crates/sp2sim/src/engine/fiber.rs"
);

/// Addresses of this thread's parked stacks (test observability).
#[cfg(test)]
pub(crate) fn spare_stack_addrs() -> Vec<usize> {
    SPARE_STACKS.with_borrow(|spare| spare.iter().map(|s| s.as_ptr() as usize).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Drive one fiber that ping-pongs with the main context `rounds`
    /// times by suspending into `main` after each step.
    #[test]
    fn ping_pong_switches() {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let main = Rc::new(ContextSlot::new());
        let fiber: Rc<RefCell<Option<Fiber>>> = Rc::default();

        let (log2, main2, fiber2) = (Rc::clone(&log), Rc::clone(&main), Rc::clone(&fiber));
        let body = Box::new(move || {
            for i in 0..3u32 {
                log2.borrow_mut().push(i * 2 + 1);
                let f = fiber2.borrow();
                unsafe { f.as_ref().expect("fiber set").suspend_into(&main2) };
            }
            // Final switch-out: the test never resumes again.
            let f = fiber2.borrow();
            unsafe { f.as_ref().expect("fiber set").suspend_into(&main2) };
        });
        *fiber.borrow_mut() = Some(unsafe { Fiber::new(body) });

        for i in 0..3u32 {
            log.borrow_mut().push(i * 2);
            let f = fiber.borrow();
            unsafe { f.as_ref().expect("fiber set").resume(&main) };
        }
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4, 5]);
        fiber.borrow().as_ref().expect("fiber set").check_canary();
    }

    #[test]
    fn fiber_preserves_float_state_across_switches() {
        let main = Rc::new(ContextSlot::new());
        let fiber: Rc<RefCell<Option<Fiber>>> = Rc::default();
        let out: Rc<RefCell<f64>> = Rc::default();

        let (main2, fiber2, out2) = (Rc::clone(&main), Rc::clone(&fiber), Rc::clone(&out));
        let body = Box::new(move || {
            let mut acc = 1.0f64;
            for _ in 0..4 {
                acc = acc * 1.5 + 0.25;
                let f = fiber2.borrow();
                unsafe { f.as_ref().expect("fiber set").suspend_into(&main2) };
            }
            *out2.borrow_mut() = acc;
            let f = fiber2.borrow();
            unsafe { f.as_ref().expect("fiber set").suspend_into(&main2) };
        });
        *fiber.borrow_mut() = Some(unsafe { Fiber::new(body) });

        let mut expect = 1.0f64;
        for _ in 0..4 {
            unsafe { fiber.borrow().as_ref().expect("set").resume(&main) };
            expect = expect * 1.5 + 0.25;
        }
        unsafe { fiber.borrow().as_ref().expect("set").resume(&main) };
        assert_eq!(*out.borrow(), expect);
    }

    /// A fiber whose body did nothing but switch out for good.
    fn spent_fiber() -> Fiber {
        let main = Rc::new(ContextSlot::new());
        // The body finds its own fiber through a pointer (not a
        // `RefCell` borrow, which it would hold forever once suspended).
        let this: Rc<Cell<*const Fiber>> = Rc::new(Cell::new(std::ptr::null()));
        let (main2, this2) = (Rc::clone(&main), Rc::clone(&this));
        let body = Box::new(move || unsafe { (*this2.get()).suspend_into(&main2) });
        let fiber = Box::new(unsafe { Fiber::new(body) });
        this.set(&*fiber);
        unsafe { fiber.resume(&main) };
        fiber.check_canary();
        *fiber
    }

    #[test]
    fn recycled_stack_is_reused_with_a_fresh_canary() {
        // Own thread: the spare list is thread-local and other tests
        // of this binary park stacks too.
        std::thread::spawn(|| {
            let first = spent_fiber();
            let addr = first.stack.as_ptr() as usize;
            first.recycle();
            assert_eq!(spare_stack_addrs(), vec![addr]);
            // Clobber the parked canary: reuse must rewrite it.
            SPARE_STACKS.with_borrow_mut(|spare| {
                spare[0][0].write(0);
            });
            let second = spent_fiber();
            assert_eq!(second.stack.as_ptr() as usize, addr, "same allocation");
            assert!(spare_stack_addrs().is_empty());
            assert_eq!(second.stack.len() * 16, stack_bytes());
            second.recycle();

            // The list is bounded.
            for _ in 0..MAX_SPARE_STACKS + 3 {
                Fiber {
                    stack: Box::new_uninit_slice(64),
                    sp: Cell::new(std::ptr::null_mut()),
                }
                .recycle();
            }
            assert_eq!(spare_stack_addrs().len(), MAX_SPARE_STACKS);
        })
        .join()
        .expect("test thread");
    }
}
