/**
 * The module descriptor declares no type, so it adds nothing to any metric.
 */
import java.util.spi.ToolProvider;

@Deprecated
open module app.core {
    requires transitive java.logging;
    exports app;
    uses ToolProvider;
}
