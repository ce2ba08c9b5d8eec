package enums;

import java.util.function.IntUnaryOperator;

// Enums nested in a class and in an interface, next to members of their own.
public class Registry {
    enum Level { LOW, HIGH, }

    enum Op implements IntUnaryOperator {
        NEGATE { public int applyAsInt(int x) { return -x; } },
        TWICE(2) {
            public int applyAsInt(int x) {
                return factor * x;
            }
        },
        SAME(1) { public int applyAsInt(int x) { return x; } };

        final int factor;

        Op() {
            this(-1);
        }

        Op(int factor) {
            this.factor = factor;
        }
    }

    interface Catalog {
        enum Kind { BOOK, DISC }

        Kind kind();
    }

    enum Empty {
        ;
        static int count() {
            return 0;
        }
    }

    private Level level = Level.LOW;

    Level level() {
        return level;
    }
}
